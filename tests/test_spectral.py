"""Coefficient transforms and the diagonal spectral operators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dense_reference as ref
from halflap import (
    GridFn,
    SpectralFn,
    UndefinedQuotientError,
    analyze,
    apply_A_half,
    apply_B_half,
    apply_inv_laplacian,
    dirichlet_energy,
    eigenpairs,
    hardy_quotient,
    inner_product,
    make_interval,
    make_rectangle,
    synthesize,
)

coeff_arrays = arrays(
    np.float64,
    (16,),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


def unit_basis(N=256, K=32):
    return eigenpairs(make_interval(1.0, N), K)


def mode_grid(basis, k):
    """The k-th (zero-based) eigenfunction on the grid."""
    return basis.to_grid(np.eye(basis.K)[k])


@pytest.mark.parametrize(
    "domain, K", [(make_interval(1.0, 256), 32), (make_rectangle(1.0, 1.0, 32, 32), 20)]
)
def test_transforms_are_the_basis_maps(domain, K):
    basis = eigenpairs(domain, K)
    rng = np.random.default_rng(5)
    f = SpectralFn(basis, rng.standard_normal(K))
    u = GridFn(domain, rng.standard_normal(domain.num_nodes))
    np.testing.assert_array_equal(synthesize(f).values, basis.to_grid(f.coeffs))
    np.testing.assert_array_equal(analyze(u, basis).coeffs, basis.to_coeffs(u.values))


def test_analyze_recovers_single_mode():
    basis = unit_basis()
    b = analyze(GridFn(basis.domain, mode_grid(basis, 1)), basis)
    want = np.zeros(32)
    want[1] = 1.0
    np.testing.assert_allclose(b.coeffs, want, atol=1e-13)


def test_analyze_is_linear():
    basis = unit_basis()
    u = GridFn(basis.domain, 3.0 * mode_grid(basis, 0) - mode_grid(basis, 2))
    b = analyze(u, basis)
    want = np.zeros(32)
    want[0], want[2] = 3.0, -1.0
    np.testing.assert_allclose(b.coeffs, want, atol=1e-12)


def test_analyze_matches_dense_quadrature_on_step():
    dom = make_interval(1.0, 256)
    basis = eigenpairs(dom, 32)
    x = dom.axis_nodes(0)
    step = np.where(x < 0.5, 1.0, 0.0)
    b = analyze(GridFn(dom, step), basis)
    want = ref.analyze_dense(step, 1.0, 256, 32)
    np.testing.assert_allclose(b.coeffs, want, atol=1e-12)


def test_synthesize_single_mode():
    basis = unit_basis()
    e1 = np.zeros(32)
    e1[0] = 1.0
    u = synthesize(SpectralFn(basis, e1))
    x = basis.domain.axis_nodes(0)
    np.testing.assert_allclose(u.values, math.sqrt(2.0) * np.sin(math.pi * x), rtol=1e-14)


def test_synthesize_zero():
    basis = unit_basis()
    u = synthesize(SpectralFn(basis, np.zeros(32)))
    assert np.all(u.values == 0)


def test_round_trip_is_projection():
    basis = unit_basis()
    rng = np.random.default_rng(11)
    b = SpectralFn(basis, rng.standard_normal(32))
    once = synthesize(b)
    twice = synthesize(analyze(once, basis))
    np.testing.assert_allclose(twice.values, once.values, atol=1e-13)


def test_half_power_scales_ground_mode():
    basis = unit_basis()
    e1 = np.zeros(32)
    e1[0] = 1.0
    out = apply_A_half(SpectralFn(basis, e1))
    assert out.coeffs[0] == pytest.approx(math.pi, rel=1e-15)
    assert np.all(out.coeffs[1:] == 0)


def test_half_power_on_two_modes():
    basis = unit_basis()
    b = np.zeros(32)
    b[0] = b[1] = 1.0
    out = apply_A_half(SpectralFn(basis, b)).coeffs
    assert out[0] == pytest.approx(math.pi, rel=1e-15)
    assert out[1] == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_half_power_of_zero():
    basis = unit_basis()
    out = apply_A_half(SpectralFn(basis, np.zeros(32)))
    assert np.all(out.coeffs == 0)


def test_inverse_half_power_on_ground_mode():
    basis = unit_basis()
    e1 = np.zeros(32)
    e1[0] = 1.0
    out = apply_B_half(SpectralFn(basis, e1))
    assert out.coeffs[0] == pytest.approx(1.0 / math.pi, rel=1e-15)


@given(b=coeff_arrays)
@settings(max_examples=25, deadline=None)
def test_inverse_composition_is_exact(b):
    basis = eigenpairs(make_interval(1.0, 64), 16)
    f = SpectralFn(basis, b)
    np.testing.assert_array_equal(apply_B_half(apply_A_half(f)).coeffs, b)
    np.testing.assert_array_equal(apply_A_half(apply_B_half(f)).coeffs, b)


@given(b=coeff_arrays)
@settings(max_examples=25, deadline=None)
def test_square_identities_are_exact(b):
    basis = eigenpairs(make_interval(1.0, 64), 16)
    f = SpectralFn(basis, b)
    np.testing.assert_array_equal(
        apply_B_half(apply_B_half(f)).coeffs, apply_inv_laplacian(f).coeffs
    )
    np.testing.assert_array_equal(apply_A_half(apply_A_half(f)).coeffs, b * basis.lambdas)


def test_inv_laplacian_divides_mode_by_eigenvalue():
    basis = unit_basis()
    for k in (0, 4, 17):
        ek = np.zeros(32)
        ek[k] = 1.0
        out = apply_inv_laplacian(SpectralFn(basis, ek))
        assert out.coeffs[k] == 1.0 / basis.lambdas[k]


def test_inv_laplacian_ground_mode_value():
    basis = unit_basis()
    e1 = np.zeros(32)
    e1[0] = 1.0
    out = apply_inv_laplacian(SpectralFn(basis, e1))
    assert out.coeffs[0] == pytest.approx(1.0 / math.pi**2, rel=1e-15)


@given(b=coeff_arrays, c=coeff_arrays)
@example(b=9.0 * np.eye(16)[0], c=8.0 * np.eye(16)[12])  # both sides 0, mismatch 1.06e-12
@settings(max_examples=25, deadline=None)
def test_half_power_is_self_adjoint(b, c):
    basis = eigenpairs(make_interval(1.0, 64), 16)
    u = SpectralFn(basis, b)
    w = SpectralFn(basis, c)
    au, aw = apply_A_half(u), apply_A_half(w)
    lhs = inner_product(synthesize(au), synthesize(w))
    rhs = inner_product(synthesize(u), synthesize(aw))
    # Roundoff scales with the terms that cancel, not with the result: bound it by
    # coefficient 1-norms, which unlike squared norms do not underflow; tiny floors
    # the subnormal range.
    scale = np.abs(au.coeffs).sum() * np.abs(c).sum() + np.abs(b).sum() * np.abs(aw.coeffs).sum()
    assert abs(lhs - rhs) <= 1e-12 * scale + np.finfo(float).tiny


def test_energy_form_values():
    basis = unit_basis()
    e1 = np.zeros(32)
    e1[0] = 1.0
    assert dirichlet_energy(SpectralFn(basis, e1)) == pytest.approx(math.pi, rel=1e-15)
    b = np.zeros(32)
    b[0] = b[1] = 1.0
    assert dirichlet_energy(SpectralFn(basis, b)) == pytest.approx(3.0 * math.pi, rel=1e-15)


def test_energy_form_matches_quadrature_pairing():
    basis = unit_basis()
    rng = np.random.default_rng(5)
    f = SpectralFn(basis, rng.standard_normal(32))
    pairing = inner_product(synthesize(apply_A_half(f)), synthesize(f))
    assert dirichlet_energy(f) == pytest.approx(pairing, abs=1e-12 * max(1.0, pairing))


@given(b=coeff_arrays)
@settings(max_examples=25, deadline=None)
def test_energy_form_nonnegative(b):
    basis = eigenpairs(make_interval(1.0, 64), 16)
    val = dirichlet_energy(SpectralFn(basis, b))
    assert val >= 0
    # squaring underflows to zero below ~1e-162, so strict positivity is only
    # claimed for coefficients of representable square
    if np.any(np.abs(b) > 1e-150):
        assert val > 0


def test_hardy_quotient_stable_under_refinement():
    vals = []
    for N in (512, 1024):
        basis = eigenpairs(make_interval(1.0, N), 1)
        vals.append(hardy_quotient(SpectralFn(basis, np.ones(1))))
    assert vals[0] > 0 and math.isfinite(vals[0])
    assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]


def test_hardy_quotient_scale_invariant():
    basis = unit_basis()
    rng = np.random.default_rng(9)
    b = rng.standard_normal(32)
    q1 = hardy_quotient(SpectralFn(basis, b))
    q2 = hardy_quotient(SpectralFn(basis, -3.7 * b))
    assert q2 == pytest.approx(q1, rel=1e-12)


def test_hardy_quotient_rejects_zero():
    basis = unit_basis()
    with pytest.raises(UndefinedQuotientError):
        hardy_quotient(SpectralFn(basis, np.zeros(32)))
