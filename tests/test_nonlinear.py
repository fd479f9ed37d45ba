"""Fixed-point solve, its reported defects, and sweep."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import dense_reference as ref
import halflap.basis
import halflap.nonlinear as nonlinear
from halflap import (
    ConfigError,
    DiscreteDomain,
    SolveConfig,
    check_positivity,
    check_symmetry,
    critical_exponent,
    eigenpairs,
    make_interval,
    make_rectangle,
    solve,
    sweep,
    synthesize,
)

UNIT_INTERVAL = make_interval(1.0, 256)
DENSE_INTERVAL = make_interval(1.0, 64)
UNIT_SQUARE = make_rectangle(1.0, 1.0, 64, 64)


def cfg_1d(**kw):
    base = dict(p=2.0, K=64)
    base.update(kw)
    return SolveConfig(**base)


def _defects(basis, c, p):
    """(Galerkin defect, equation defect) of the coefficients c, from their definitions:
    sup |A_half u - projection of u^p| and sup |A_half u - u^p| over the nodes."""
    power = np.maximum(basis.to_grid(c), 0.0) ** p
    a_half = c * basis.sqrt_lambdas
    galerkin = float(np.max(np.abs(basis.to_grid(a_half - basis.to_coeffs(power)))))
    return galerkin, float(np.max(np.abs(basis.to_grid(a_half) - power)))


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
        ("K", 16.9),
        ("K", True),
        ("max_iter", 2.5),
        ("max_iter", True),
        ("rng_seed", 1.5),
        ("rng_seed", False),
        ("allow_near_critical", "no"),
        ("allow_near_critical", 1),
    ],
)
def test_config_rejects_nonfinite_and_negative_settings(field, value):
    kwargs = {"p": 2.0, "K": 16, field: value}
    with pytest.raises(ConfigError, match=field):
        SolveConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("p", "2"),
        ("p", True),
        ("tol_residual", "1e-9"),
        ("tol_residual", None),
        ("tol_residual", True),
        ("init_perturbation", None),
        ("init_perturbation", "0.1"),
        ("init_perturbation", False),
    ],
)
def test_config_names_a_setting_that_is_not_a_real_number(field, value):
    # a string or None used to reach a comparison and raise a bare TypeError
    kwargs = {"p": 2.0, "K": 16, field: value}
    with pytest.raises(ConfigError, match=f"{field} must be a real number"):
        SolveConfig(**kwargs)


@pytest.mark.parametrize(
    "domain, K",
    [(DiscreteDomain((1.0, 1.0, 1.0), (32, 32, 32)), 300), (UNIT_SQUARE, 1000)],
)
def test_solve_refuses_an_undealiased_mode_count_before_any_sine(domain, K, sine_sizes):
    # 300 modes fit within the 8^3 of N_a // 4 but reach sine index 9 on the cube;
    # 1000 exceed the square's 16^2 and stay within its 63^2 grid modes
    with pytest.raises(ConfigError, match="too coarse to dealias"):
        solve(domain, 1.5, SolveConfig(p=1.5, K=K))
    assert sine_sizes == []


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


def test_residual_small_at_dense_discretization():
    # 63 modes on the 64-point grid: the coefficient transform is square and
    # invertible, so the raw and Galerkin defects coincide and the reference
    # fixed-point iterate drives both to the floor
    I0, _, b = ref.fixed_point_reference(1.0, 64, 63, 2.0)
    basis = eigenpairs(DENSE_INTERVAL, 63)
    galerkin, defect = _defects(basis, I0 * b, 2.0)  # the factor I0^(1/(p-1)) at p = 2
    assert defect <= 1e-8
    assert galerkin == pytest.approx(defect, abs=1e-10)


def test_solve_1d_report_facts():
    rep = solve(UNIT_INTERVAL, 2.0, cfg_1d())
    assert rep.converged
    u = synthesize(rep.solution)
    assert check_positivity(u).metric > 0
    assert check_symmetry(u, 0).metric <= 1e-8 * rep.sup_norm
    assert rep.I0 == pytest.approx(ref.ORACLE_I0_1D, rel=1e-6)
    assert rep.sup_norm == pytest.approx(ref.ORACLE_SUP_1D, rel=1e-5)
    assert rep.iterations > 0
    assert rep.residual_inf <= rep.tol_residual


@pytest.mark.parametrize("domain, K, perturbation", [
    (UNIT_INTERVAL, 64, 0.0),
    (make_interval(1.0, 1024), 256, 0.0),
    (UNIT_SQUARE, 60, 0.0),
    (make_rectangle(1.0, 1.0, 256, 256), 3253, 0.0),
    (make_rectangle(2.0, 1.0, 256, 128), 127, 0.0),
    (DiscreteDomain((1.0, 1.0, 1.0), (64, 64, 64)), 2000, 0.0),
    (UNIT_INTERVAL, 64, 0.05),
])
def test_report_is_what_the_loop_measured(domain, K, perturbation):
    # every defect field equals its definition evaluated on the solution in the
    # space the loop ran in, bit for bit: the sector for a ground start
    p = 1.8 if domain.n == 3 else 2.0
    rep = solve(domain, p, SolveConfig(p=p, K=K, init_perturbation=perturbation, rng_seed=1))
    basis, c = rep.solution.basis, rep.solution.coeffs
    space = basis if perturbation else basis.sector
    if not perturbation:
        c = c[space.positions]
    assert (rep.residual_inf, rep.equation_defect) == _defects(space, c, p)
    assert rep.sup_norm == np.max(np.abs(space.to_grid(c)))


# the reports of ground solves against the whole-basis definitions, measured
# over these cases at p = 1.5, 2, 3, 5 in 1D, 1.5, 2, 2.5 in 2D and 1.5, 1.8 on
# boxes (one BLAS thread): I0 within 6.7e-16 relative, sup_norm within 5.9e-16
# relative and both defects within 1.0e-14 times sup_norm; at p = 3 the
# equation defect is itself at roundoff (3.5e-12), so the defects are bounded
# absolutely
@pytest.mark.parametrize("domain, K, p", [
    (UNIT_INTERVAL, 64, 3.0),
    (make_interval(1.0, 255), 63, 5.0),
    (make_interval(1.0, 1024), 256, 2.0),
    (UNIT_SQUARE, 60, 2.5),
    (make_rectangle(2.0, 1.0, 256, 128), 127, 2.0),
    (DiscreteDomain((1.0, 2.0, 3.0), (16, 32, 48)), 40, 1.5),
])
def test_sector_and_whole_basis_reports_agree(domain, K, p):
    rep = solve(domain, p, SolveConfig(p=p, K=K))
    assert rep.converged, rep.detail
    basis, c = rep.solution.basis, rep.solution.coeffs
    u = basis.to_grid(c)
    norm = (domain.weight * np.sum(np.abs(u) ** (p + 1))) ** (2 / (p + 1))
    assert rep.I0 == pytest.approx((c * basis.sqrt_lambdas) @ c / norm, rel=2e-15)
    assert rep.sup_norm == pytest.approx(np.max(np.abs(u)), rel=2e-15)
    galerkin, defect = _defects(basis, c, p)
    assert rep.residual_inf == pytest.approx(galerkin, abs=3e-14 * rep.sup_norm)
    assert rep.equation_defect == pytest.approx(defect, abs=3e-14 * rep.sup_norm)


def test_solve_defect_decreases_under_refinement():
    coarse = solve(UNIT_INTERVAL, 2.0, cfg_1d())
    fine = solve(make_interval(1.0, 512), 2.0, cfg_1d(K=128))
    assert fine.equation_defect < coarse.equation_defect


def test_solve_2d_symmetric_in_both_axes():
    cases = [
        (UNIT_SQUARE, 2.0, True),
        # the K = 60 truncation undershoots zero near the long sides (grid
        # minimum about -4.2e-3 against sup 4.66), so positivity is not asserted
        (make_rectangle(2.0, 1.0, 128, 64), 2.5, False),
    ]
    for domain, p, positive in cases:
        cfg = SolveConfig(p=p, K=60)
        rep = solve(domain, p, cfg)
        assert rep.converged
        assert rep.iterations < cfg.max_iter
        u = synthesize(rep.solution)
        assert max(check_symmetry(u, a).metric for a in range(2)) <= 1e-8 * rep.sup_norm
        if positive:
            assert check_positivity(u).metric > 0


def test_unit_cube_solve_is_positive_and_symmetric_in_all_three_axes():
    # n = 3 runs through the same basis and loop; its critical exponent is 2
    rep = solve(DiscreteDomain((1.0, 1.0, 1.0), (32, 32, 32)), 1.5, SolveConfig(p=1.5, K=31))
    assert rep.converged, rep.detail
    u = synthesize(rep.solution)
    assert check_positivity(u).metric > 0
    for axis in range(3):
        assert check_symmetry(u, axis).metric <= 1e-8 * rep.sup_norm


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_unit_square_refines_at_the_most_dealiased_modes(p):
    # K is the most modes each grid dealiases, above min(N) - 1. Measured (one BLAS
    # thread): I0 agrees to 3.3e-10 at p = 2 and 1.4e-6 at p = 2.5, and the
    # defect over sup u^p goes 3.7e-5 -> 9.3e-6 and 5.5e-3 -> 1.3e-5
    reps = [solve(make_rectangle(1.0, 1.0, N, N), p, SolveConfig(p=p, K=K))
            for N, K in ((128, 821), (256, 3253))]
    assert all(rep.converged and rep.iterations < 60 for rep in reps)
    assert reps[1].I0 == pytest.approx(reps[0].I0, rel=1e-5)
    coarse, fine = (rep.equation_defect / rep.sup_norm**p for rep in reps)
    assert fine < coarse


# I0 of each ground-start solve as the plain normalized iteration found it (one
# BLAS thread, numpy 2.4): the accelerated loop must land on the same minimizer
GROUND_I0 = [
    (make_interval(1.0, 256), 64, 1.5, 2.9148424722100037),
    (make_interval(1.0, 256), 64, 2.0, 2.7142244124757684),
    (make_interval(1.0, 256), 64, 3.0, 2.377583782632653),
    (make_interval(1.0, 256), 64, 5.0, 1.8893717621743866),
    (make_interval(1.0, 1024), 256, 1.5, 2.914842474925964),
    (make_interval(1.0, 1024), 256, 2.0, 2.714224412607661),
    (make_interval(1.0, 1024), 256, 3.0, 2.3775837826326525),
    (make_interval(1.0, 1024), 256, 5.0, 1.8893717454050303),
    (UNIT_SQUARE, 60, 1.5, 3.783223300090151),
    (UNIT_SQUARE, 60, 2.0, 3.1579195235411976),
    (UNIT_SQUARE, 60, 2.5, 2.5664422784281036),
    (make_rectangle(1.0, 1.0, 128, 128), 127, 1.5, 3.7832203987246174),
    (make_rectangle(1.0, 1.0, 128, 128), 127, 2.0, 3.1576854969788024),
    (make_rectangle(1.0, 1.0, 128, 128), 127, 2.5, 2.542090727070132),
    (make_rectangle(2.0, 1.0, 256, 128), 127, 1.5, 3.3904661592617322),
    (make_rectangle(2.0, 1.0, 256, 128), 127, 2.0, 2.997688143499192),
    (make_rectangle(2.0, 1.0, 256, 128), 127, 2.5, 2.4991787887708616),
    # odd N, on a direct and on a folded axis, and a box: frozen from the
    # whole-basis loop that ground starts ran before the symmetric sector
    (make_interval(1.0, 255), 63, 2.0, 2.7142244124736026),
    (make_interval(1.0, 1023), 255, 3.0, 2.3775837826326516),
    (DiscreteDomain((1.0, 1.0, 1.0), (32, 32, 32)), 31, 1.5, 4.2005864333331315),
]


def _even_index_coeffs(rep):
    """The solution's coefficients on the modes with an even sine index on some axis."""
    odd = np.all(np.array(rep.solution.basis.factor_rows) % 2 == 0, axis=0)
    return rep.solution.coeffs[~odd]


@pytest.mark.parametrize("domain, K, p, I0", GROUND_I0)
def test_ground_start_converges_in_few_steps(domain, K, p, I0):
    rep = solve(domain, p, SolveConfig(p=p, K=K))
    assert rep.converged
    assert rep.iterations < 60
    assert rep.I0 == pytest.approx(I0, rel=1e-12)
    # the loop ran in the symmetric sector: every other mode is an exact zero
    assert _even_index_coeffs(rep).size > 0
    assert not np.any(_even_index_coeffs(rep))


@pytest.mark.parametrize(
    "domain, K, p", [(UNIT_SQUARE, 60, 2.0), (UNIT_SQUARE, 60, 2.5), (UNIT_INTERVAL, 64, 3.0)]
)
def test_perturbed_start_converges_to_the_ground_solution(domain, K, p):
    # the perturbation excites the antisymmetric modes, which the plain
    # Petviashvili step contracts slowly (over 200 steps on each of these cases)
    cfg = SolveConfig(p=p, K=K, max_iter=200, init_perturbation=0.05, rng_seed=1)
    rep = solve(domain, p, cfg)
    ground = solve(domain, p, SolveConfig(p=p, K=K))
    assert rep.converged, rep.detail
    assert rep.I0 == pytest.approx(ground.I0, rel=1e-12)
    # the perturbation reaches every mode, so the loop ran on the whole basis,
    # and the symmetry theorem pulls the even-index modes back to roundoff
    even = _even_index_coeffs(rep)
    assert np.all(even != 0)
    assert np.max(np.abs(even)) <= 1e-8 * np.max(np.abs(rep.solution.coeffs))


def test_stagnating_mixing_restarts_and_converges():
    # from this perturbed start of 1024/K256 at p = 5 the mixed residual
    # wanders between 0.3 and 2 unless the history is cleared, and the solve
    # ends unconverged at the stall stop
    domain, K, p, I0 = GROUND_I0[7]
    cfg = SolveConfig(p=p, K=K, init_perturbation=0.05, rng_seed=1095513148)
    rep = solve(domain, p, cfg)
    assert rep.converged, rep.detail
    assert rep.I0 == pytest.approx(I0, rel=1e-12)


def test_a_residual_without_a_new_best_ends_at_the_stall_stop():
    # from this perturbed start of the long rectangle the residual settles near
    # 4e-2, far above the target, and raising max_iter does not lower it; the
    # solve ends after STALL_STEPS steps without a new best, not at the cap
    cfg = SolveConfig(p=2.5, K=127, init_perturbation=0.05, rng_seed=139951793)
    rep = solve(make_rectangle(2.0, 1.0, 256, 128), 2.5, cfg)
    assert not rep.converged
    assert rep.detail == (
        f"residual above tol_residual: no new best residual in {nonlinear.STALL_STEPS} steps"
    )
    assert nonlinear.STALL_STEPS <= rep.iterations < cfg.max_iter


def test_a_tolerance_below_the_floor_names_the_floor_target():
    # 1e-2 * tol_residual is below TARGET_FLOOR, so the loop stops when its sup
    # bound meets the floor, with a residual that meets the floor but not the
    # tolerance
    rep = solve(UNIT_INTERVAL, 2.0, SolveConfig(p=2.0, K=64, tol_residual=1e-15))
    assert not rep.converged
    assert rep.tol_residual < rep.residual_inf <= nonlinear.TARGET_FLOOR
    assert rep.detail == "residual above tol_residual: the sup bound met the floor target 1e-14"


@pytest.fixture
def transform_calls(monkeypatch):
    """Counts of the to_grid and to_coeffs calls, keyed by (transform type, name)."""
    calls = Counter()
    for name in ("to_grid", "to_coeffs"):
        method = getattr(halflap.basis.SineTransform, name)

        def counted(self, *args, _method=method, _name=name, **kwargs):
            calls[type(self), _name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(halflap.basis.SineTransform, name, counted)
    return calls


@pytest.mark.parametrize("perturbation, space", [
    (0.0, halflap.basis.SymmetricSector),
    (0.05, halflap.basis.EigenBasis),
])
def test_each_step_runs_one_synthesis_and_one_analysis(perturbation, space, transform_calls):
    # two solves stopped at the iteration cap differ only by their extra steps,
    # so the start and the report cancel from the difference of their counts;
    # every transform of a ground solve is in the sector, and of a perturbed
    # one in the whole basis
    calls = transform_calls
    counts = []
    for max_iter in (3, 8):
        cfg = cfg_1d(max_iter=max_iter, init_perturbation=perturbation, rng_seed=1)
        rep = solve(UNIT_INTERVAL, 2.0, cfg)
        assert rep.iterations == max_iter and not rep.converged
        counts.append(Counter(calls))
    assert {kind for kind, _ in calls} == {space}
    assert {name: counts[1][space, name] - 2 * counts[0][space, name] for _, name in calls} == {
        "to_grid": 5, "to_coeffs": 5
    }


@pytest.mark.parametrize("domain, K", [(UNIT_INTERVAL, 64), (UNIT_SQUARE, 60)])
@pytest.mark.parametrize("perturbation", [0.0, 0.05])
def test_a_converged_solve_analyzes_iterations_plus_three_times(domain, K, perturbation,
                                                                transform_calls):
    # analyses: the start, one per iterate measured (iterations + 1) and the
    # report's constraint sum, whose residual is the loop's own; syntheses:
    # the ground mode, the perturbation if any, one per iterate, and the
    # report's u, A_half u and residual
    cfg = SolveConfig(p=2.0, K=K, init_perturbation=perturbation, rng_seed=1)
    rep = solve(domain, 2.0, cfg)
    assert rep.converged, rep.detail
    space = halflap.basis.EigenBasis if perturbation else halflap.basis.SymmetricSector
    assert transform_calls == {
        (space, "to_coeffs"): rep.iterations + 3,
        (space, "to_grid"): rep.iterations + (6 if perturbation else 5),
    }


def _sup_mode(domain):
    return math.prod(math.sqrt(2.0 / L) for L in domain.lengths)


@pytest.mark.parametrize("domain, K, sector", [
    (UNIT_INTERVAL, 64, False),
    (make_interval(1.0, 1024), 256, False),
    (UNIT_SQUARE, 60, False),
    (DiscreteDomain((1.0, 2.0, 3.0), (16, 16, 16)), 40, False),
    (make_rectangle(2.0, 1.0, 256, 128), 127, True),
])
def test_coefficient_norms_measure_the_residual_on_the_grid(domain, K, sector):
    # the loop ranks by the l2 norm of the residual's coefficients and stops on
    # prod sqrt(2/L_a) times their l1 norm: the grid L^2 norm and a sup bound
    basis = eigenpairs(domain, K)
    rng = np.random.default_rng(K)
    for _ in range(5):
        r = rng.standard_normal(basis.sector.K if sector else K)
        if sector:
            # a sector's coefficients stand for the basis's with zeros elsewhere
            assert np.max(np.abs(basis.sector.to_grid(r))) <= _sup_mode(domain) * np.abs(r).sum()
            full = np.zeros(K)
            full[basis.sector.positions] = r
            r = full
        grid = basis.to_grid(r)
        assert math.sqrt(r @ r) == pytest.approx(
            math.sqrt(domain.weight * (grid @ grid)), rel=1e-12
        )
        assert np.max(np.abs(grid)) <= _sup_mode(domain) * np.abs(r).sum()


def test_near_critical_square_converges_from_a_cold_start():
    # from the ground mode these solves used to end at the stall stop on the
    # start itself (I0 3.09 at p = 2.7); the unit square's I0 at p = 2.7 from
    # 256^2 to 512^2 agrees to 1e-6
    rep = solve(make_rectangle(1.0, 1.0, 512, 512), 2.7, SolveConfig(p=2.7, K=12935))
    assert rep.converged, rep.detail
    assert rep.I0 == pytest.approx(2.2715732, rel=1e-4)
    cfg = SolveConfig(p=2.85, K=3253, allow_near_critical=True)
    rep = solve(make_rectangle(1.0, 1.0, 256, 256), 2.85, cfg)
    assert rep.converged, rep.detail
    assert rep.I0 == pytest.approx(2.0571264, rel=1e-6)


def _nan_weights(a):
    return np.full(a.shape[1], np.nan)


def _singular(a):
    raise np.linalg.LinAlgError("Singular matrix")


def test_degenerate_mixing_falls_back_to_plain_steps(monkeypatch):
    # mixing weights of nan make every mixed iterate nonfinite, and a singular
    # Gram matrix gives no weights, so either way each step clears the history
    # and takes the plain step
    mixed = solve(UNIT_INTERVAL, 2.0, cfg_1d())
    for degenerate in (_nan_weights, _singular):
        calls = []

        def degenerate_solve(a, b, *args, **kwargs):
            calls.append(a.shape)
            return degenerate(a)

        monkeypatch.setattr(nonlinear.np.linalg, "solve", degenerate_solve)
        plain = solve(UNIT_INTERVAL, 2.0, cfg_1d())
        assert calls
        assert all(shape[1] == 1 for shape in calls)  # the history never grows
        assert plain.converged
        assert plain.iterations > mixed.iterations
        assert plain.I0 == pytest.approx(mixed.I0, rel=1e-12)


@pytest.mark.parametrize("K, p", [(10, 2.0), (10, 2.5), (30, 2.5), (63, 2.5)])
def test_truncated_square_dipping_below_zero_converges(K, p):
    # these truncations dip below zero, where |u|^(p+1) and the clipped power
    # max(u, 0)^p disagree; a loop that renormalizes each iterate by the L^(p+1)
    # norm stalls here on a residual plateau above the target
    rep = solve(UNIT_SQUARE, p, SolveConfig(p=p, K=K))
    assert rep.converged, rep.detail
    assert rep.iterations < 60


def test_a_ground_solve_allocates_no_whole_grid_node_row():
    # the loop and the report run on the sector's eighth of the 64^3 grid: the
    # traced peak of a warm solve is 0.69 MB, against 7.05 MB when the report
    # ran on the whole grid, and a whole-grid row is 2.1 MB
    domain, cfg = DiscreteDomain((1.0, 1.0, 1.0), (64, 64, 64)), SolveConfig(p=1.8, K=2000)
    solve(domain, 1.8, cfg)  # builds the basis and its sector
    tracemalloc.start()
    try:
        rep = solve(domain, 1.8, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged, rep.detail
    assert peak < domain.num_nodes * np.dtype(float).itemsize


def test_zero_projection_ends_in_the_nonfinite_report(monkeypatch):
    # the Nehari ratio divides by u . P(u^p); a zero projection must end the
    # solve with the diverged report, not a division error or a warning
    project = nonlinear._project

    def zero_projection(basis, u, p, buf):
        projection, res = project(basis, u, p, buf)
        return np.zeros_like(projection), res

    monkeypatch.setattr(nonlinear, "_project", zero_projection)
    rep = solve(UNIT_INTERVAL, 2.0, cfg_1d())
    assert not rep.converged
    assert rep.solution is None
    assert "nonfinite iterate" in rep.detail


def test_2d_defect_falls_as_modes_grow():
    # the unprojected defect relative to sup u^p (= sup A_half u) on 64^2 at
    # p = 2 measured 0.123, 0.065 and 0.021 at K = 15, 30 and 60
    rel = []
    for K in (15, 30, 60):
        rep = solve(UNIT_SQUARE, 2.0, SolveConfig(p=2.0, K=K))
        assert rep.converged, rep.detail
        rel.append(rep.equation_defect / rep.sup_norm**2.0)
    assert all(b <= a for a, b in zip(rel, rel[1:]))
    assert rel[-1] <= rel[0] / 4


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


def test_sweep_flags_a_non_real_exponent():
    # each exponent reaches SolveConfig's check as given, so a string, bytes or a
    # bool becomes a flagged row instead of a number or a bare ValueError
    exponents = [2.0, "2", b"3", "abc", True]
    reports = sweep(DENSE_INTERVAL, exponents, SolveConfig(K=16))
    assert reports[0].converged
    for q, rep in zip(exponents[1:], reports[1:]):
        assert not rep.converged
        assert rep.p is q
        assert rep.detail == f"rejected: p must be a real number, got {q!r}"


def test_each_basis_is_built_once_per_domain_and_mode_count(monkeypatch):
    halflap.basis._build.cache_clear()
    calls = []
    axis_modes = halflap.basis._axis_modes

    def counted(domain, axis, *args, **kwargs):
        calls.append(axis)
        return axis_modes(domain, axis, *args, **kwargs)

    monkeypatch.setattr(halflap.basis, "_axis_modes", counted)
    cfg = SolveConfig(K=60)
    reports = sweep(UNIT_SQUARE, [1.5, 2.0, 2.5, 2.8], cfg)
    assert all(r.converged for r in reports)
    assert solve(UNIT_SQUARE, 2.0, cfg).converged
    # the 5 solves share one basis: one sine factor per axis
    assert sorted(calls) == [0, 1]
    assert eigenpairs(UNIT_SQUARE, 60) is eigenpairs(UNIT_SQUARE, 60)
    for K in range(1, 10):
        eigenpairs(DENSE_INTERVAL, K)
    assert halflap.basis._build.cache_info().currsize == 8


def test_near_critical_override_produces_report():
    rep = solve(
        UNIT_SQUARE, 2.9, SolveConfig(p=2.9, K=60, allow_near_critical=True)
    )
    assert math.isfinite(rep.sup_norm)
    assert rep.detail == "" or "rejected" not in rep.detail
