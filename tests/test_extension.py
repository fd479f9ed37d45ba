"""Harmonic extension, Dirichlet energy, DtN map, and trace extremals."""

import math

import numpy as np
import pytest

import dense_reference as ref
from halflap import (
    SpectralFn,
    TruncationError,
    apply_A_half,
    best_trace_constant,
    dirichlet_energy,
    dtn_fd,
    eigenpairs,
    evaluate_extension,
    extremal_quotient,
    make_interval,
    synthesize,
)


def unit_basis(N=256, K=32):
    return eigenpairs(make_interval(1.0, N), K)


def mode(basis, k, amp=1.0):
    b = np.zeros(basis.K)
    b[k - 1] = amp
    return SpectralFn(basis, b)


def test_extension_at_base_is_the_trace():
    basis = unit_basis()
    rng = np.random.default_rng(2)
    f = SpectralFn(basis, rng.standard_normal(32))
    base = evaluate_extension(f, 0.0).values
    np.testing.assert_array_equal(base, synthesize(f).values)
    np.testing.assert_array_equal(base, basis.to_grid(f.coeffs))


def test_extension_damps_single_mode():
    basis = unit_basis()
    f = mode(basis, 1)
    got = evaluate_extension(f, 1.0).values
    want = math.exp(-math.pi) * synthesize(f).values
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_extension_decay_bound():
    basis = unit_basis()
    sup = np.max(np.abs(evaluate_extension(mode(basis, 1), 10.0).values))
    assert sup <= 2.0 * math.exp(-10.0 * math.pi)


def test_extension_rejects_negative_height():
    basis = unit_basis()
    with pytest.raises(ValueError):
        evaluate_extension(mode(basis, 1), -0.1)


def test_extension_semigroup():
    basis = unit_basis()
    rng = np.random.default_rng(3)
    f = SpectralFn(basis, rng.standard_normal(32))
    a, b = 0.3, 0.9
    damped = SpectralFn(basis, f.coeffs * np.exp(-basis.sqrt_lambdas * a))
    two_step = evaluate_extension(damped, b).values
    one_step = evaluate_extension(f, a + b).values
    np.testing.assert_allclose(two_step, one_step, atol=1e-13)


def test_dirichlet_energy_single_modes():
    basis = unit_basis()
    assert dirichlet_energy(mode(basis, 1)) == pytest.approx(math.pi, rel=1e-15)
    assert dirichlet_energy(mode(basis, 2, amp=2.0)) == pytest.approx(8.0 * math.pi, rel=1e-15)


def test_dtn_fd_first_order_on_ground_mode():
    basis = unit_basis()
    f = mode(basis, 1)
    h = 1e-3
    got = dtn_fd(f, h).values
    want = math.pi * synthesize(f).values
    rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel <= math.pi * h


def test_dtn_fd_error_halves_with_h():
    basis = unit_basis()
    rng = np.random.default_rng(6)
    f = SpectralFn(basis, rng.standard_normal(8).tolist() + [0.0] * 24)
    exact = synthesize(apply_A_half(f)).values
    errs = [np.max(np.abs(dtn_fd(f, h).values - exact)) for h in (1e-2, 5e-3)]
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_dtn_fd_of_zero():
    basis = unit_basis()
    out = dtn_fd(SpectralFn(basis, np.zeros(32)), 1e-3)
    assert np.all(out.values == 0)


def test_dtn_fd_rejects_nonpositive_step():
    basis = unit_basis()
    with pytest.raises(ValueError):
        dtn_fd(mode(basis, 1), 0.0)
    for h in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"\bh\b"):
            dtn_fd(mode(basis, 1), h)


def test_trace_constant_dimension_two():
    assert best_trace_constant(2) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_trace_constant_dimension_three():
    want = (2.0 * math.pi**2) ** (1.0 / 3.0)
    assert best_trace_constant(3) == pytest.approx(want, rel=1e-12)
    assert best_trace_constant(3) == pytest.approx(2.70257, abs=5e-5)


@pytest.mark.parametrize("n", [342, 343, 400, 1001])
def test_trace_constant_past_the_float_range_of_gamma(n):
    # Gamma((n + 1) / 2) overflows a float from n = 343 on; sigma_n here comes
    # from sigma_0 = 2, sigma_1 = 2 pi and sigma_n = 2 pi sigma_(n-2) / (n - 1)
    if n >= 343:
        with pytest.raises(OverflowError):
            math.gamma((n + 1) / 2)
    log_sigma = math.log(2.0 if n % 2 == 0 else 2.0 * math.pi)
    log_sigma += sum(math.log(2.0 * math.pi / (k - 1)) for k in range(2 + n % 2, n + 1, 2))
    want = (n - 1) * math.exp(log_sigma / n) / 2.0
    assert best_trace_constant(n) == pytest.approx(want, rel=1e-12)


def test_trace_constant_refuses_a_dimension_too_large_for_a_float():
    with pytest.raises(ValueError, match="too large for a float"):
        best_trace_constant(10**400)


def test_trace_constant_rejects_dimension_one():
    with pytest.raises(ValueError):
        best_trace_constant(1)


def test_extremal_quotient_matches_reference_quadrature():
    got = extremal_quotient(1.0, 50.0, 512)
    want = ref.extremal_quotient_reference(1.0, 50.0, 512)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(1.7110808687, abs=1e-9)


def test_extremal_quotient_frozen_values():
    assert ref.EXTREMAL_Q_EPS1 == pytest.approx(
        ref.extremal_quotient_reference(1.0, 200.0, 4096), rel=1e-14
    )
    assert ref.EXTREMAL_Q_EPS2 == pytest.approx(
        ref.extremal_quotient_reference(2.0, 200.0, 4096), rel=1e-14
    )


def test_extremal_quotient_scale_invariance_coarse():
    q1 = extremal_quotient(1.0, 100.0, 1024)
    q2 = extremal_quotient(2.0, 100.0, 1024)
    assert abs(q2 - q1) <= 0.02 * q1


def test_extremal_quotient_flags_short_truncation():
    with pytest.raises(TruncationError):
        extremal_quotient(1.0, 0.5, 512)


def test_extremal_profile_validation():
    with pytest.raises(ValueError):
        extremal_quotient(-1.0, 50.0, 512)
    with pytest.raises(ValueError):
        extremal_quotient(1.0, 50.0, 32)
