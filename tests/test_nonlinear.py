"""Fixed-point solve, rescaling, residuals, and sweep."""

import math

import numpy as np
import pytest

import dense_reference as ref
from halflap import (
    ConfigError,
    SignViolationError,
    SolveConfig,
    SpectralFn,
    check_positivity,
    check_symmetry,
    critical_exponent,
    eigenpairs,
    galerkin_residual,
    make_interval,
    make_rectangle,
    rescale_to_solution,
    residual,
    solve,
    sweep,
)

UNIT_INTERVAL = make_interval(1.0, 256)
DENSE_INTERVAL = make_interval(1.0, 64)
UNIT_SQUARE = make_rectangle(1.0, 1.0, 64, 64)


def cfg_1d(**kw):
    base = dict(p=2.0, K=64)
    base.update(kw)
    return SolveConfig(**base)


def test_critical_exponent_values():
    assert critical_exponent(2) == 3.0
    assert critical_exponent(3) == 2.0
    assert critical_exponent(1) == math.inf


def test_residual_nonincreasing_in_max_iter():
    reps = [solve(UNIT_INTERVAL, 2.0, cfg_1d(max_iter=m)) for m in (1, 5, 20, 80)]
    res = [r.residual_inf for r in reps]
    assert all(b <= a for a, b in zip(res, res[1:]))
    assert not reps[0].converged
    assert "max_iter" in reps[0].detail


def test_supercritical_exponent_rejected():
    with pytest.raises(ConfigError):
        solve(UNIT_SQUARE, 5.0, SolveConfig(p=5.0, K=16))


def test_critical_exponent_rejected_even_with_override():
    with pytest.raises(ConfigError):
        solve(UNIT_SQUARE, 3.0, SolveConfig(p=3.0, K=16, allow_near_critical=True))


def test_near_critical_band_needs_override():
    with pytest.raises(ConfigError):
        solve(UNIT_SQUARE, 2.9, SolveConfig(p=2.9, K=16))


def test_exponent_floor():
    with pytest.raises(ConfigError):
        SolveConfig(p=1.0001, K=16)


def test_config_validation():
    with pytest.raises(ConfigError):
        SolveConfig(p=2.0, K=0)
    with pytest.raises(ConfigError):
        SolveConfig(p=2.0, K=16, max_iter=0)
    with pytest.raises(ConfigError):
        SolveConfig(p=2.0, K=16, tol_residual=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol_residual", math.inf),
        ("tol_residual", math.nan),
        ("init_perturbation", math.inf),
        ("init_perturbation", math.nan),
        ("init_perturbation", -0.1),
        ("rng_seed", -1),
        ("p", math.inf),
    ],
)
def test_config_rejects_nonfinite_and_negative_settings(field, value):
    kwargs = {"p": 2.0, "K": 16, field: value}
    with pytest.raises(ConfigError, match=field):
        SolveConfig(**kwargs)


def test_config_accepts_boundary_settings():
    cfg = SolveConfig(p=2.0, K=16, tol_residual=1e300, init_perturbation=0.0, rng_seed=0)
    assert cfg.rng_seed == 0


def test_explicit_exponent_must_agree_with_config():
    with pytest.raises(ConfigError):
        solve(UNIT_INTERVAL, 2.5, cfg_1d())
    with pytest.raises(ConfigError):
        solve(UNIT_INTERVAL, None, SolveConfig(K=64))


def test_dealiasing_guard():
    with pytest.raises(ConfigError):
        solve(make_interval(1.0, 128), 2.0, cfg_1d())


def test_rescale_identity_when_multiplier_is_one():
    basis = eigenpairs(UNIT_INTERVAL, 4)
    w = SpectralFn(basis, np.array([0.5, 0.25, 0.0, -0.125]))
    u = rescale_to_solution(w, 1.0, 2.0)
    np.testing.assert_array_equal(u.coeffs, w.coeffs)


def test_rescale_scales_by_power_of_multiplier():
    basis = eigenpairs(UNIT_INTERVAL, 4)
    w = SpectralFn(basis, np.array([0.5, 0.25, 0.0, -0.125]))
    u = rescale_to_solution(w, 4.0, 2.0)
    np.testing.assert_allclose(u.coeffs, 4.0 * w.coeffs, rtol=1e-15)


def test_rescale_rejects_nonpositive_energy():
    basis = eigenpairs(UNIT_INTERVAL, 4)
    w = SpectralFn(basis, np.ones(4))
    with pytest.raises(ValueError):
        rescale_to_solution(w, 0.0, 2.0)


def test_residual_of_zero():
    basis = eigenpairs(UNIT_INTERVAL, 8)
    assert residual(SpectralFn(basis, np.zeros(8)), 2.0) == 0.0


def test_residual_of_pure_mode_is_positive():
    basis = eigenpairs(UNIT_INTERVAL, 8)
    e1 = np.zeros(8)
    e1[0] = 1.0
    r = residual(SpectralFn(basis, e1), 2.0)
    x = UNIT_INTERVAL.axis_nodes(0)
    phi = math.sqrt(2.0) * np.sin(math.pi * x)
    want = np.max(np.abs(math.pi * phi - phi**2))
    assert r == pytest.approx(want, rel=1e-12)
    assert r > 0


def test_residual_rejects_sign_changing_input():
    basis = eigenpairs(UNIT_INTERVAL, 8)
    e2 = np.zeros(8)
    e2[1] = 1.0
    with pytest.raises(SignViolationError):
        residual(SpectralFn(basis, e2), 2.0)


def test_residual_small_at_dense_discretization():
    # 63 modes on the 64-point grid: the coefficient transform is square and
    # invertible, so the raw and Galerkin defects coincide and the reference
    # fixed-point iterate drives both to the floor
    I0, _, b = ref.fixed_point_reference(1.0, 64, 63, 2.0)
    basis = eigenpairs(DENSE_INTERVAL, 63)
    sol = rescale_to_solution(SpectralFn(basis, b), I0, 2.0)
    r = residual(sol, 2.0)
    assert r <= 1e-8
    assert galerkin_residual(sol, 2.0) == pytest.approx(r, abs=1e-10)


def test_solve_1d_report_facts():
    rep = solve(UNIT_INTERVAL, 2.0, cfg_1d())
    assert rep.converged
    assert rep.positivity_min > 0
    assert rep.symmetry_defect <= 1e-8 * rep.sup_norm
    assert rep.I0 == pytest.approx(ref.ORACLE_I0_1D, rel=1e-6)
    assert rep.sup_norm == pytest.approx(ref.ORACLE_SUP_1D, rel=1e-5)
    assert rep.iterations > 0
    assert rep.residual_inf <= rep.tol_residual


@pytest.mark.parametrize("domain, K", [(UNIT_INTERVAL, 64), (UNIT_SQUARE, 60)])
def test_report_is_what_the_loop_measured(domain, K):
    # every defect field equals the public function measuring it, bit for bit
    rep = solve(domain, 2.0, SolveConfig(p=2.0, K=K))
    u = rep.solution_grid
    assert rep.residual_inf == galerkin_residual(rep.solution, 2.0)
    assert rep.equation_defect == residual(rep.solution, 2.0)
    assert rep.symmetry_defect == max(check_symmetry(u, a).metric for a in range(domain.n))
    assert rep.positivity_min == check_positivity(u).metric


def test_solve_defect_decreases_under_refinement():
    coarse = solve(UNIT_INTERVAL, 2.0, cfg_1d())
    fine = solve(make_interval(1.0, 512), 2.0, cfg_1d(K=128))
    assert fine.equation_defect < coarse.equation_defect


def test_solve_2d_symmetric_in_both_axes():
    cases = [
        (UNIT_SQUARE, 2.0, True),
        # the residual plateaus above the 1e-2 * tol_residual target here, so
        # only the stall stop ends the iteration before max_iter; the K = 60
        # truncation undershoots zero near the long sides (grid minimum about
        # -4.2e-3 against sup 4.66), so positivity is not asserted
        (make_rectangle(2.0, 1.0, 128, 64), 2.5, False),
    ]
    for domain, p, positive in cases:
        cfg = SolveConfig(p=p, K=60)
        rep = solve(domain, p, cfg)
        assert rep.converged
        assert rep.iterations < cfg.max_iter
        assert rep.symmetry_defect <= 1e-8 * rep.sup_norm
        if positive:
            assert rep.positivity_min > 0


def test_solve_is_deterministic():
    cfg = cfg_1d(init_perturbation=1e-3, rng_seed=5)
    a = solve(UNIT_INTERVAL, 2.0, cfg)
    b = solve(UNIT_INTERVAL, 2.0, cfg)
    assert a.converged
    assert a.I0 == b.I0
    np.testing.assert_array_equal(a.solution.coeffs, b.solution.coeffs)


def test_solve_seed_insensitive_diagnostic():
    # different random initializations land on the same minimizer
    reps = [solve(UNIT_INTERVAL, 2.0, cfg_1d(init_perturbation=1e-2, rng_seed=s)) for s in (0, 1)]
    assert all(r.converged for r in reps)
    assert reps[0].I0 == pytest.approx(reps[1].I0, rel=1e-9)


def test_sweep_preserves_input_order():
    reports = sweep(UNIT_INTERVAL, [2.5, 1.5, 2.0], cfg_1d(p=None))
    assert [r.p for r in reports] == [2.5, 1.5, 2.0]
    assert all(r.converged for r in reports)
    assert all(math.isfinite(r.sup_norm) for r in reports)


def test_sweep_empty_list():
    assert sweep(UNIT_INTERVAL, [], cfg_1d(p=None)) == []


def test_sweep_flags_rejected_exponent_without_crashing():
    for domain, exponents in ((UNIT_SQUARE, [2.0, 5.0]), (DENSE_INTERVAL, [2.0, math.inf])):
        reports = sweep(domain, exponents, SolveConfig(K=16))
        assert reports[0].converged
        assert not reports[1].converged
        assert "rejected" in reports[1].detail


def test_near_critical_override_produces_report():
    rep = solve(
        UNIT_SQUARE, 2.9, SolveConfig(p=2.9, K=60, allow_near_critical=True)
    )
    assert math.isfinite(rep.sup_norm)
    assert rep.detail == "" or "rejected" not in rep.detail
