"""Domain construction, eigenpairs, and grid inner products."""

import argparse
import ast
import dataclasses
import inspect
import itertools
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as ref
import halflap
from halflap import (
    AliasingError,
    DiscreteDomain,
    DomainError,
    DomainMismatchError,
    GridFn,
    boundary_distance,
    eigenpairs,
    inner_product,
    make_interval,
    make_rectangle,
)
from halflap.basis import _axis_modes
from halflap.cli import _cmd_check
from halflap.extension import (
    TruncationError,
    best_trace_constant,
    dtn_fd,
    evaluate_extension,
    extremal_quotient,
)
from halflap.nonlinear import ConfigError, SolveConfig, critical_exponent, solve
from halflap.spectral import SpectralFn
from halflap.verification import check_monotonicity, check_symmetry, stability_margin

ORTHO_TOL = 1e-13

lengths = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
counts = st.integers(min_value=8, max_value=96)


def test_interval_has_interior_nodes_only():
    dom = make_interval(1.0, 8)
    assert dom.num_nodes == 7
    assert dom.spacings == (0.125,)
    x = dom.axis_nodes(0)
    assert x[0] == 0.125 and x[-1] == 0.875


def test_interval_pi_length():
    dom = make_interval(math.pi, 16)
    assert dom.num_nodes == 15
    assert dom.spacings[0] == pytest.approx(math.pi / 16, rel=1e-15)


def test_negative_length_rejected():
    with pytest.raises(DomainError):
        make_interval(-1.0, 8)


def test_rectangle_node_counts():
    assert make_rectangle(1.0, 1.0, 8, 8).num_nodes == 49
    assert make_rectangle(2.0, 1.0, 16, 8).num_nodes == 105


def test_rectangle_zero_side_rejected():
    with pytest.raises(DomainError):
        make_rectangle(1.0, 0.0, 8, 8)


def test_too_coarse_grid_rejected():
    with pytest.raises(DomainError):
        make_interval(1.0, 4)


def test_interval_eigenvalues_are_squared_multiples():
    basis = eigenpairs(make_interval(1.0, 64), 3)
    want = np.array([1.0, 4.0, 9.0]) * math.pi**2
    np.testing.assert_allclose(basis.lambdas, want, rtol=1e-15)


def test_square_ground_eigenvalue():
    basis = eigenpairs(make_rectangle(1.0, 1.0, 16, 16), 1)
    assert basis.lambdas[0] == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert [rows[0] + 1 for rows in basis.factor_rows] == [1, 1]


def test_discrete_orthonormality():
    basis = eigenpairs(make_interval(1.0, 256), 32)
    modes = np.array([basis.to_grid(e) for e in np.eye(32)])
    gram = (modes * basis.domain.weight) @ modes.T
    assert np.max(np.abs(gram - np.eye(32))) <= ORTHO_TOL


def _domain(dims) -> DiscreteDomain:
    """The domain of dims = (L_1, ..., L_n, N_1, ..., N_n)."""
    n = len(dims) // 2
    return DiscreteDomain(dims[:n], dims[n:])


# the cube has triple eigenvalue ties
BOXES = [((1.0, 1.0, 1.0, 16, 16, 16), 15), ((2.0, 1.0, 1.5, 32, 16, 24), 15)]


# each factor of at least FOLD_MIN_ENTRIES entries is applied folded: 1024 and 1023
# (even and odd N, with and without a midpoint node), and axis 0 of the long
# rectangle (36 x 2047 = 73,692 entries), whose axis 1 stays direct like 256/K64
FOLDED = [((1.0, 1024), 256), ((1.0, 1023), 255), ((16.0, 1.0, 2048, 16), 60)]


@pytest.mark.parametrize(
    "domain, K",
    [(make_interval(1.0, 256), 64), (make_rectangle(2.0, 1.0, 64, 32), 30)]
    + [(_domain(dims), K) for dims, K in BOXES + FOLDED],
)
def test_to_coeffs_inverts_to_grid(domain, K):
    basis = eigenpairs(domain, K)
    b = np.random.default_rng(7).standard_normal(K)
    values = basis.to_grid(b)
    assert values.shape == (domain.num_nodes,)
    assert np.max(np.abs(basis.to_coeffs(values) - b)) <= ORTHO_TOL * np.max(np.abs(b))


@pytest.mark.parametrize(
    "dims, K",
    [((1.0, 256), 64), ((2.0, 1.0, 256, 128), 127), ((1.0, 1.0, 1.0, 16, 16, 16), 20)]
    + FOLDED,
)
def test_to_grid_writes_into_out(dims, K):
    # 256/K64 ends on a direct axis, 1024/K256 and 1023/K255 on a folded one, and
    # the long rectangle folds its first axis and ends on a direct one
    basis = eigenpairs(_domain(dims), K)
    b = np.random.default_rng(13).standard_normal(K)
    buf = np.full(basis.domain.num_nodes, np.nan)
    assert basis.to_grid(b, out=buf) is buf
    np.testing.assert_array_equal(buf, basis.to_grid(b))


def test_to_grid_refuses_an_out_it_cannot_view():
    # a transposed node array reshapes to the node rows only as a copy, which
    # would take the values and leave out unwritten
    basis = eigenpairs(_domain((2.0, 1.0, 256, 128)), 127)
    with pytest.raises(ValueError, match="without a copy"):
        basis.to_grid(np.ones(127), out=np.empty((255, 127)).T)


# direct axes with even and odd N (256/K64, 255/K63), folded ones (1024/K256,
# 1023/K255), the largest benchmark rectangle and the two boxes
SECTOR_CASES = [((1.0, 256), 64), ((1.0, 255), 63), ((1.0, 1024), 256), ((1.0, 1023), 255),
                ((2.0, 1.0, 256, 128), 127)] + BOXES


@pytest.mark.parametrize("dims, K", SECTOR_CASES)
def test_sector_transforms_are_the_full_ones_on_the_half_grid(dims, K):
    basis = eigenpairs(_domain(dims), K)
    sector = basis.sector
    rows = np.array(basis.factor_rows)[:, sector.positions]
    assert np.all(rows % 2 == 0)  # every sine index of a sector mode is odd
    assert sector.K == np.sum(np.all(np.array(basis.factor_rows) % 2 == 0, axis=0))
    assert sector.num_nodes == math.prod(N // 2 for N in basis.domain.grid_counts)
    b = np.random.default_rng(11).standard_normal(sector.K)
    embedded = np.zeros(K)
    embedded[sector.positions] = b
    full = basis.to_grid(embedded)
    half = full.reshape(basis.domain.shape)[tuple(slice(N // 2) for N in basis.domain.grid_counts)]
    got = sector.to_grid(b)
    assert np.max(np.abs(got - half.ravel())) <= 1e-14 * np.max(np.abs(half))
    want = basis.to_coeffs(full)[sector.positions]
    assert np.max(np.abs(sector.to_coeffs(half.ravel()) - want)) <= 1e-14 * np.max(np.abs(want))
    np.testing.assert_array_equal(sector.sqrt_lambdas, basis.sqrt_lambdas[sector.positions])


def test_a_folded_axis_shares_its_odd_block_with_the_sector(sine_sizes):
    basis = eigenpairs(make_interval(1.0, 1024), 256)
    basis.to_grid(np.ones(256))
    sine_sizes.clear()
    (block,) = basis.sector.factors
    assert sine_sizes == []
    assert np.shares_memory(block, basis.factors[0][0])
    assert basis.sector is basis.sector


def _brute_force_modes(dims, K):
    """(eigenvalue, j_1, ..., j_n) of the first K modes, sorting every index tuple
    the grid holds.

    Each eigenvalue is the library's float64 expression: the sum over the axes of
    x * x with x = j pi / L, as numpy squares, since the Python float x ** 2 calls
    pow and can round apart from it. The tie rule acts on these computed values.
    """
    n = len(dims) // 2
    lengths, counts = dims[:n], dims[n:]
    return sorted(
        (sum(x * x for x in (j * math.pi / L for j, L in zip(index, lengths))), *index)
        for index in itertools.product(*(range(1, N) for N in counts))
    )[:K]


@pytest.mark.parametrize(
    "dims, K",
    [((1.0, 1.0, 48, 48), 47), ((2.0, 1.0, 64, 32), 31), ((1.3, 0.7, 40, 90), 39)]
    + BOXES
    + [((1.0, 1.0, 64, 8), 200), ((2.0, 1.0, 8, 64), 300), ((1.0, 2.0, 1.5, 16, 16, 8), 300)]
    + [((1.0, 256), 64)]
    + FOLDED,
)
def test_separable_transform_matches_dense_modes(dims, K):
    # the square has eigenvalue ties, and the three cases on the third line take
    # K above min(N) - 1. The dense modes are closed-form product sines of the
    # brute-force tuples; their arguments j pi x / L carry rounding that grows
    # with j, so at 1024/K256 they differ from the exact-phase factors by 2.6e-14
    # relative on either transform path.
    n = len(dims) // 2
    basis = eigenpairs(_domain(dims), K)
    modes = [index for _, *index in _brute_force_modes(dims, K)]
    dense = ref.product_sine_matrix(dims[:n], dims[n:], modes)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(K)
    values = rng.standard_normal(basis.domain.num_nodes)
    want_grid = b @ dense
    want_coeffs = dense @ values * basis.domain.weight
    assert np.max(np.abs(basis.to_grid(b) - want_grid)) <= ORTHO_TOL * np.max(np.abs(want_grid))
    assert np.max(np.abs(basis.to_coeffs(values) - want_coeffs)) <= ORTHO_TOL * np.max(
        np.abs(want_coeffs)
    )


def test_interval_transform_is_one_product_with_its_modes():
    dom = make_interval(1.3, 256)
    basis = eigenpairs(dom, 64)
    modes = _axis_modes(dom, 0, 64)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(64)
    values = rng.standard_normal(dom.num_nodes)
    np.testing.assert_array_equal(basis.to_grid(b), b @ modes)
    np.testing.assert_array_equal(basis.to_coeffs(values), modes @ values * dom.weight)


def _direct_contractions(basis, b, values):
    """to_grid(b) and to_coeffs(values), contracting each axis with its whole
    factor from _axis_modes by tensordot."""
    factors = [_axis_modes(basis.domain, a, count) for a, count in enumerate(basis.max_indices)]
    grid = np.zeros(basis.max_indices)
    grid[basis.factor_rows] = b
    coeffs = values.reshape(basis.domain.shape)
    for m in factors:
        grid = np.tensordot(grid, m, axes=(0, 0))
        coeffs = np.tensordot(coeffs, m, axes=(0, 1))
    return grid.ravel(), coeffs[basis.factor_rows] * basis.domain.weight


@pytest.mark.parametrize(
    "dims, K, folded",
    [(dims, K, [a == 0 for a in range(len(dims) // 2)]) for dims, K in FOLDED]
    + [((1.0, 256), 64, [False]), ((1.0, 512), 128, [False])]
    + [((2.0, 1.0, 256, 128), 127, [False, False])],
)
def test_folded_transform_matches_the_full_factors(dims, K, folded):
    # only factors of at least FOLD_MIN_ENTRIES entries fold: 512/K128 has 65,408
    # and the largest benchmark rectangle 127 x 255. The table's sines are
    # mirror-symmetric only to rounding, so the fold agrees with the full-factor
    # contraction to roundoff (measured 1.5e-15 relative), not bit for bit
    basis = eigenpairs(_domain(dims), K)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(K)
    values = rng.standard_normal(basis.domain.num_nodes)
    want_grid, want_coeffs = _direct_contractions(basis, b, values)
    for got, want in ((basis.to_grid(b), want_grid), (basis.to_coeffs(values), want_coeffs)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert [isinstance(m, tuple) for m in basis.factors] == folded


def _direct_sine_factor(domain, axis, count):
    """Rows j = 1..count of sqrt(2/L) sin(j pi x / L), evaluated at every node."""
    L = domain.lengths[axis]
    j = np.arange(1, count + 1)[:, None]
    return np.sqrt(2.0 / L) * np.sin(j * np.pi * domain.axis_nodes(axis) / L)


def _whole_factor(form, nodes):
    """An axis's factor from its form in EigenBasis.factors: the factor itself,
    or its odd-j and even-j half-node blocks, mirrored onto the far nodes by
    sine j at node N - i = (-1)^(j+1) sine j at node i."""
    if not isinstance(form, tuple):
        return form
    odd, even = form
    half = odd.shape[1]
    m = np.empty((len(odd) + len(even), nodes))
    m[::2, :half], m[1::2, :half] = odd, even
    m[::2, half:], m[1::2, half:] = odd[:, nodes - half - 1 :: -1], -even[:, nodes - half - 1 :: -1]
    return m


# (N - 1)^2 passes 2^31 on the 50000-node interval
SINE_FACTOR_CASES = [((1.0, 1024), 256), ((1.0, 50000), 3), ((2.0, 1.0, 64, 32), 30)] + BOXES


@pytest.mark.parametrize("dims, K", SINE_FACTOR_CASES)
def test_sine_factors_match_the_direct_formula(dims, K):
    # the factors gather from a table of 2N sines; the direct products j pi x / L
    # carry rounding that grows with j, so they agree only to 1e-12, while the
    # exact phases keep each factor orthonormal to within 2e-15 (the direct
    # formula gives 8.0e-15 at 1024/K256)
    domain = _domain(dims)
    basis = eigenpairs(domain, K)
    basis.to_grid(np.ones(K))
    for a, (form, nodes, h) in enumerate(zip(basis.factors, domain.shape, domain.spacings)):
        m = _whole_factor(form, nodes)
        np.testing.assert_allclose(m, _direct_sine_factor(domain, a, len(m)), rtol=0, atol=1e-12)
        assert np.max(np.abs(m @ m.T * h - np.eye(len(m)))) <= 2e-15


def test_eigenpairs_evaluates_at_most_2n_sines_per_axis(sine_sizes):
    # each axis reads its K x (N - 1) factor, or its two blocks, from one table
    # of 2N sines, built at the basis's first transform
    for dims, K in SINE_FACTOR_CASES:
        domain = _domain(dims)
        basis = eigenpairs(domain, K)
        sine_sizes.clear()
        basis.to_coeffs(np.ones(domain.num_nodes))
        assert len(sine_sizes) == domain.n
        assert all(size <= 2 * N for size, N in zip(sine_sizes, domain.grid_counts))


def test_eigenpairs_evaluates_no_sine(sine_sizes):
    for dims, K in SINE_FACTOR_CASES + FOLDED:
        eigenpairs(_domain(dims), K)
    assert sine_sizes == []


@pytest.mark.parametrize("dims, K", SINE_FACTOR_CASES + FOLDED)
def test_a_second_transform_evaluates_no_sine(dims, K, sine_sizes):
    basis = eigenpairs(_domain(dims), K)
    values = basis.to_grid(np.ones(K))
    sine_sizes.clear()
    basis.to_coeffs(values)
    basis.to_grid(np.ones(K))
    assert sine_sizes == []


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_array_bytes(item) for item in obj)
    return 0


def test_large_square_basis_stores_no_dense_modes():
    # a dense 255 x 65025 mode matrix would take 133 MB
    basis = eigenpairs(make_rectangle(1.0, 1.0, 256, 256), 255)
    basis.to_grid(np.ones(255))
    held = sum(_array_bytes(getattr(basis, f.name)) for f in dataclasses.fields(basis))
    assert 0 < held + _array_bytes(basis.factors) < 1_000_000


def test_a_folded_axis_holds_only_its_two_blocks():
    # 128 odd and 128 even rows on 512 nodes; the whole 256 x 1023 factor as well
    # would add 2,095,104 bytes
    basis = eigenpairs(make_interval(1.0, 1024), 256)
    basis.to_grid(np.ones(256))
    (form,) = basis.factors
    assert [m.shape for m in form] == [(128, 512), (128, 512)]
    assert _array_bytes(basis.factors) == 1_048_576


def test_weight_computed_once_per_domain(monkeypatch):
    calls = []
    spacings = DiscreteDomain.spacings

    def counted(self):
        calls.append(self)
        return spacings.fget(self)

    monkeypatch.setattr(DiscreteDomain, "spacings", property(counted))
    dom = make_rectangle(1.0, 2.0, 16, 32)
    u = GridFn(dom, np.ones(dom.num_nodes))
    weights = {dom.weight for _ in range(3)}
    inner_product(u, u)
    inner_product(u, u)
    assert weights == {0.0625 * 0.0625}
    assert len(calls) == 1


def test_only_basis_reads_the_mode_matrix():
    # every coefficient/grid transform goes through SineTransform.to_grid and
    # to_coeffs, so a new representation of the modes changes basis.py alone;
    # that covers the per-axis factors, folded or not, their rows, and the
    # weighted factors the sector's to_coeffs reads
    owned = {"factors", "factor_rows", "coeff_factors"}
    readers = []
    for path in sorted(Path(halflap.__file__).parent.glob("*.py")):
        if path.name == "basis.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in owned:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_nonlinear_imports_nothing_from_verification():
    # the solve report measures defects only; the structural checks stay in
    # verification, which the solver does not depend on
    path = Path(halflap.__file__).parent / "nonlinear.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            # from .verification import x, and from . import verification
            imported.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.name for alias in node.names]
    assert imported
    assert not [m for m in imported if m.split(".")[-1] == "verification"]


def test_dunder_all_matches_the_public_package_names():
    # __all__ and the package imports are two lists of one set of names
    bound = {
        name
        for name, value in vars(halflap).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(halflap.__all__) == sorted(bound | {"__version__"})


def test_mode_count_bounds():
    dom = make_interval(1.0, 16)
    with pytest.raises(DomainError):
        eigenpairs(dom, 0)
    with pytest.raises(AliasingError):
        eigenpairs(dom, 16)
    eigenpairs(dom, 15)
    # a grid carries j_a <= N_a - 1 on each axis, so 7 x 7 modes on an 8 x 8 grid
    square = make_rectangle(1.0, 1.0, 8, 8)
    assert eigenpairs(square, 49).K == 49
    with pytest.raises(AliasingError, match="N_a - 1"):
        eigenpairs(square, 50)


@st.composite
def grids_with_mode_counts(draw):
    """(lengths then grid counts, K): 1 to 3 axes of 7 to 13 interior nodes and a
    mode count the grid carries."""
    dims = draw(st.lists(st.tuples(lengths, st.integers(8, 14)), min_size=1, max_size=3))
    flat = tuple(L for L, _ in dims) + tuple(N for _, N in dims)
    return flat, draw(st.integers(1, math.prod(N - 1 for _, N in dims)))


@given(case=grids_with_mode_counts())
# exact ties that round apart: (1, 7), (7, 1) and (5, 5) on the second square all
# have eigenvalue 50 pi^2 / L^2, computed as ...404, ...404 and ...408
@example(case=((1.8526137981983615, 1.8526137981983615, 8, 10), 52))
@example(case=((5.447557022223162, 5.447557022223162, 8, 8), 32))
@settings(max_examples=50, deadline=None)
def test_every_mode_count_the_grid_carries_matches_brute_force(case):
    # a bound box that the per-axis cap cuts short would return fewer than K modes
    flat, K = case
    basis = eigenpairs(_domain(flat), K)
    assert basis.K == K
    indices = np.stack(basis.factor_rows, axis=1) + 1
    assert indices.tolist() == [index for _, *index in _brute_force_modes(flat, K)]


@given(L=lengths, N=counts, K=st.integers(min_value=1, max_value=7))
@settings(max_examples=25, deadline=None)
def test_eigenvalues_positive_and_sorted(L, N, K):
    basis = eigenpairs(make_interval(L, N), K)
    assert basis.lambdas[0] > 0
    assert np.all(np.diff(basis.lambdas) >= 0)


@given(L1=lengths, L2=lengths, K=st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_rectangle_eigenvalues_positive_and_sorted(L1, L2, K):
    basis = eigenpairs(make_rectangle(L1, L2, 64, 64), K)
    assert basis.lambdas[0] > 0
    assert np.all(np.diff(basis.lambdas) >= 0)


@pytest.mark.parametrize(
    "dims, K",
    [
        ((1.0, 1.0, 24, 24), 23),
        ((2.0, 1.0, 32, 16), 15),
        ((2.0, 1.0, 256, 128), 127),
        ((1.0, 1.0, 256, 256), 255),
        ((1.3, 0.7, 40, 90), 39),
    ]
    + BOXES,
)
def test_rectangle_mode_order_matches_brute_force(dims, K):
    # ascending eigenvalue, ties (j <-> k on the square, permutations on the
    # cube) broken by the first index, then the next
    brute = _brute_force_modes(dims, K)
    basis = eigenpairs(_domain(dims), K)
    indices = np.stack(basis.factor_rows, axis=1) + 1
    assert indices.tolist() == [index for _, *index in brute]
    np.testing.assert_allclose(basis.lambdas, [lam for lam, *_ in brute], rtol=1e-15)
    n = len(dims) // 2
    if len(set(dims[:n])) == 1:
        assert len(set(basis.lambdas.tolist())) < K  # the case has ties to break


def test_basis_arrays_are_read_only():
    cases = ((make_rectangle(1.0, 1.0, 16, 16), 8), (make_interval(1.0, 64), 8),
             (make_interval(1.0, 1024), 256))
    for domain, K in cases:
        basis = eigenpairs(domain, K)
        basis.to_grid(np.ones(K))
        # the 1024/K256 factor is held as its two blocks
        blocks = sum((m if isinstance(m, tuple) else (m,) for m in basis.factors), ())
        for arr in (basis.lambdas, basis.sqrt_lambdas) + blocks + basis.factor_rows:
            with pytest.raises(ValueError):
                arr[0] = 1


def test_grids_and_bases_compare_by_identity():
    # an array-holding type has no value equality: a field-wise == of its
    # arrays could only raise, and a basis is shared through the eigenpairs cache
    dom = make_interval(1.0, 64)
    x = dom.axis_nodes(0)
    u, w = GridFn(dom, x), GridFn(dom, x)
    assert u != w and u == u and len({u, w}) == 2
    basis = eigenpairs(dom, 4)
    assert basis != eigenpairs(dom, 5)
    assert basis == eigenpairs(dom, 4) and {basis} == {eigenpairs(dom, 4)}
    assert basis.sector == basis.sector and len({basis.sector}) == 1
    f = SpectralFn(basis, np.ones(4))
    assert f != SpectralFn(basis, np.ones(4)) and len({f}) == 1


@given(L=lengths, K=st.integers(min_value=1, max_value=7))
@settings(max_examples=25, deadline=None)
def test_eigenvalues_grid_independent(L, K):
    a = eigenpairs(make_interval(L, 32), K).lambdas
    b = eigenpairs(make_interval(L, 128), K).lambdas
    np.testing.assert_array_equal(a, b)


def test_boundary_distance_interval():
    dom = make_interval(1.0, 10)
    d = boundary_distance(dom).values
    x = dom.axis_nodes(0)
    assert d[np.argmin(np.abs(x - 0.3))] == pytest.approx(0.3, rel=1e-15)
    dom8 = make_interval(1.0, 8)
    d8 = boundary_distance(dom8).values
    assert d8[5] == pytest.approx(0.25, rel=1e-15)  # node at 0.75


def test_boundary_distance_rectangle():
    dom = make_rectangle(1.0, 1.0, 8, 8)
    d = boundary_distance(dom).reshaped()
    assert d[3, 0] == pytest.approx(0.125, rel=1e-15)  # node (0.5, 0.125)


@given(L=lengths, N=counts)
@settings(max_examples=25, deadline=None)
def test_boundary_distance_nonnegative_and_symmetric(L, N):
    dom = make_interval(L, N)
    d = boundary_distance(dom).values
    assert np.all(d >= 0)
    assert np.min(d) <= L / N + 1e-12  # vanishes toward the boundary
    np.testing.assert_allclose(d, d[::-1], rtol=0, atol=1e-14 * L)


def test_inner_product_of_modes():
    dom = make_interval(1.0, 256)
    basis = eigenpairs(dom, 2)
    phi1, phi2 = (GridFn(dom, basis.to_grid(e)) for e in np.eye(2))
    assert inner_product(phi1, phi1) == pytest.approx(1.0, abs=1e-13)
    assert inner_product(phi1, phi2) == pytest.approx(0.0, abs=1e-13)


def test_inner_product_with_zero():
    dom = make_interval(1.0, 32)
    z = GridFn(dom, np.zeros(dom.num_nodes))
    w = GridFn(dom, np.ones(dom.num_nodes))
    assert inner_product(z, w) == 0.0


def test_inner_product_domain_mismatch():
    a = GridFn(make_interval(1.0, 32), np.ones(31))
    b = GridFn(make_interval(2.0, 32), np.ones(31))
    with pytest.raises(DomainMismatchError):
        inner_product(a, b)


def test_grid_fn_validates_shape_and_finiteness():
    dom = make_interval(1.0, 32)
    with pytest.raises(ValueError):
        GridFn(dom, np.ones(30))
    with pytest.raises(ValueError):
        GridFn(dom, np.full(31, np.nan))


def test_grid_fn_accepts_shaped_values():
    dom = make_rectangle(1.0, 2.0, 8, 16)
    u = GridFn(dom, np.ones(dom.shape))
    assert u.values.shape == (dom.num_nodes,)
    assert u.reshaped().shape == dom.shape


def test_domain_stores_tuples_of_floats_and_ints():
    # list and numpy inputs build the same hashable domain as make_interval, so
    # grid functions on the two forms pair without a DomainMismatchError
    listed = DiscreteDomain([1], [np.int64(64)])
    made = make_interval(1.0, 64)
    assert listed.lengths == (1.0,) and type(listed.lengths[0]) is float
    assert listed.grid_counts == (64,) and type(listed.grid_counts[0]) is int
    assert listed == made and hash(listed) == hash(made)
    assert len({listed, made}) == 1
    ones = np.ones(made.num_nodes)
    assert inner_product(GridFn(listed, ones), GridFn(made, ones)) == pytest.approx(63 / 64)


@pytest.mark.parametrize("bad", [True, np.bool_(False), "2", None, 1j])
def test_side_lengths_must_be_real_numbers(bad):
    # a bool used to build (0, 1.0) and a string (0, 2.0); numbers still pass
    with pytest.raises(DomainError, match="side length"):
        DiscreteDomain((1.0, bad), (8, 8))
    for L in (2, 2.0, np.int64(2), np.float32(2.0)):
        assert DiscreteDomain((1.0, L), (8, 8)).lengths == (1.0, 2.0)


def test_domain_kind_follows_the_axis_count():
    kinds = [_domain(dims).kind for dims in [(1.0, 8), (1.0, 2.0, 8, 8), (1.0, 2.0, 3.0, 8, 8, 8)]]
    assert kinds == ["interval", "rectangle", "box"]
    assert dataclasses.asdict(make_interval(1.0, 8))["kind"] == "interval"
    for lengths, counts in [((), ()), ((1.0,) * 4, (8,) * 4), ((1.0, 1.0), (8,))]:
        with pytest.raises(DomainError):
            DiscreteDomain(lengths, counts)


_PLANE = GridFn(make_rectangle(1.0, 1.0, 8, 8), np.arange(49.0))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: eigenpairs(make_interval(1.0, 64), 16.9), "K"),
        (lambda: eigenpairs(make_interval(1.0, 64), True), "K"),
        (lambda: make_interval(1.0, 64.7), "grid count"),
        (lambda: make_rectangle(1.0, 1.0, 16, 16.0), "grid count"),
        (lambda: DiscreteDomain((1.0,), (True,)), "grid count"),
        (lambda: critical_exponent(2.5), "dimension n"),
        (lambda: critical_exponent(True), "dimension n"),
        (lambda: best_trace_constant(2.7), "dimension n"),
        # an axis is read by the same rule, so True is not taken as axis 1
        (lambda: check_symmetry(_PLANE, True), "axis"),
        (lambda: check_symmetry(_PLANE, 1.0), "axis"),
        (lambda: check_monotonicity(_PLANE, True), "axis"),
        (lambda: check_monotonicity(_PLANE, 1.0), "axis"),
    ],
)
def test_integer_arguments_reject_floats_and_bools(call, name):
    # a float used to truncate silently (16.9 modes built 16) and a bool passed as 0 or 1
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


_DOM = make_interval(1.0, 64)
_F = SpectralFn(eigenpairs(_DOM, 4), np.ones(4))


def _config(field):
    return lambda value: SolveConfig(**{field: value})


def _check_with_mp_samples(samples):
    return _cmd_check(argparse.Namespace(p=2.0, modes=16, mp_samples=samples, c_minus=0.0), _DOM)


# each scalar input of the library, called with the bad value
_SIDE = partial(make_interval, N=64)
_COUNT = partial(make_interval, 1.0)
_K = partial(eigenpairs, _DOM)
_SOLVE_P = partial(solve, _DOM, cfg=SolveConfig(K=16))
_EPSILON = partial(extremal_quotient, R=10.0, M=100)
# epsilon is read before M and R, so a bad epsilon is named even when they are bad too
_EPSILON_FIRST = partial(extremal_quotient, R=math.nan, M=10)
_R = partial(extremal_quotient, 0.1, M=100)
_M = partial(extremal_quotient, 0.1, 10.0)
_Y = partial(evaluate_extension, _F)
_H = partial(dtn_fd, _F)
_C_MINUS = partial(stability_margin, _DOM)


@pytest.mark.parametrize(
    "call, value, error, fragment",
    [
        (_SIDE, math.nan, DomainError, "side length must be finite, got nan"),
        (_SIDE, -1.0, DomainError, "side length must be greater than 0, got -1.0"),
        (_COUNT, 4, DomainError, "grid count must be at least 8, got 4"),
        (_K, 0, DomainError, "mode count K must be at least 1, got 0"),
        (_config("p"), math.nan, ConfigError, "p must be finite, got nan"),
        (_config("p"), 1.0, ConfigError, "p must be at least 1.1, got 1.0"),
        (_config("K"), 0, ConfigError, "K must be at least 1, got 0"),
        (_config("max_iter"), 0, ConfigError, "max_iter must be at least 1, got 0"),
        (_config("tol_residual"), math.nan, ConfigError, "tol_residual must be finite, got nan"),
        (_config("tol_residual"), 0.0, ConfigError, "tol_residual must be greater than 0"),
        (_config("rng_seed"), -1, ConfigError, "rng_seed must be at least 0, got -1"),
        (_config("init_perturbation"), -0.1, ConfigError, "init_perturbation must be at least 0"),
        (_SOLVE_P, "2", ConfigError, "p must be a real number, got '2'"),
        (_SOLVE_P, b"2", ConfigError, "p must be a real number, got b'2'"),
        (_SOLVE_P, True, ConfigError, "p must be a real number, got True"),
        (_SOLVE_P, math.nan, ConfigError, "p must be finite, got nan"),
        (_SOLVE_P, 1.0, ConfigError, "p must be at least 1.1, got 1.0"),
        (critical_exponent, 0, ValueError, "dimension n must be at least 1, got 0"),
        (best_trace_constant, 1, ValueError, "dimension n must be at least 2, got 1"),
        (_EPSILON, True, ValueError, "epsilon must be a real number, got True"),
        (_EPSILON_FIRST, -1.0, ValueError, "epsilon must be greater than 0, got -1.0"),
        (_EPSILON, "0.1", ValueError, "epsilon must be a real number"),
        (_EPSILON, math.inf, ValueError, "epsilon must be finite, got inf"),
        (_EPSILON, 0.0, ValueError, "epsilon must be greater than 0, got 0.0"),
        (_R, math.nan, ValueError, "truncation radius R must be finite, got nan"),
        (_R, math.inf, ValueError, "truncation radius R must be finite, got inf"),
        (_R, 0.05, TruncationError, "truncation radius R = 0.05 must exceed epsilon = 0.1"),
        (_M, 100.5, ValueError, "quadrature resolution M must be an integer"),
        (_M, 10, ValueError, "quadrature resolution M must be at least 64, got 10"),
        (_Y, "0.1", ValueError, "extension height y must be a real number"),
        (_Y, -1.0, ValueError, "extension height y must be at least 0, got -1.0"),
        (_H, "0.1", ValueError, "height step h must be a real number"),
        (_H, 0.0, ValueError, "height step h must be greater than 0, got 0.0"),
        (_C_MINUS, True, ValueError, "c_minus_inf must be a real number, got True"),
        (_C_MINUS, "1", ValueError, "c_minus_inf must be a real number"),
        (_C_MINUS, -1.0, ValueError, "c_minus_inf must be at least 0, got -1.0"),
        (_check_with_mp_samples, 2.5, ConfigError, "mp_samples must be an integer"),
    ],
)
def test_numeric_inputs_follow_one_rule(call, value, error, fragment):
    # every scalar input is read by as_integer or as_real: its type, then, for a
    # real, its finiteness, then its bound, each failure naming the input. Cases
    # pinned by the tests above, by the SolveConfig tests and by the nonfinite
    # y, h and c_minus_inf tests are not repeated here
    with pytest.raises(error, match=re.escape(fragment)):
        call(value)


def test_mode_count_is_checked_before_the_basis_cache():
    # 16.0 == 16 and True == 1 hash alike, so a cache in front of the checks
    # would hand back the K=16 and K=1 bases built here
    dom = make_interval(1.0, 64)
    eigenpairs(dom, 16)
    eigenpairs(dom, 1)
    for K in (16.0, True):
        with pytest.raises(DomainError, match="K must be an integer"):
            eigenpairs(dom, K)
    with pytest.raises(AliasingError):
        eigenpairs(dom, 64)


def test_integer_arguments_accept_numpy_integers():
    dom = make_interval(1.0, np.int32(64))
    assert eigenpairs(dom, np.int64(16)).K == 16
    assert critical_exponent(np.int64(3)) == 2.0
    assert best_trace_constant(np.int16(2)) == best_trace_constant(2)
    assert check_symmetry(_PLANE, np.int64(1)).name == "symmetry_axis1"
    assert check_monotonicity(_PLANE, np.int64(1)).name == "monotonicity_axis1"
