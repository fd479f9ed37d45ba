"""Qualitative checks: maximum principles, symmetry, monotonicity, margin."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halflap.verification as verification
from halflap import (
    DiscreteDomain,
    DomainMismatchError,
    GridFn,
    SolveConfig,
    check_hopf,
    check_monotonicity,
    check_positivity,
    check_symmetry,
    check_weak_mp,
    eigenpairs,
    make_interval,
    make_rectangle,
    solve,
    stability_margin,
    synthesize,
)

UNIT_INTERVAL = make_interval(1.0, 256)


@pytest.fixture(scope="module")
def solved_1d():
    return solve(UNIT_INTERVAL, 2.0, SolveConfig(p=2.0, K=64))


@pytest.fixture(scope="module")
def basis_1d():
    return eigenpairs(UNIT_INTERVAL, 64)


def grid_mode(k, N=256):
    dom = make_interval(1.0, N)
    x = dom.axis_nodes(0)
    return GridFn(dom, math.sqrt(2.0) * np.sin(k * math.pi * x))


@pytest.mark.parametrize("dims", [(1.0, 64), (1.0, 2.0, 8, 17), (2.0, 1.0, 1.5, 9, 12, 8)])
def test_symmetry_metric_is_the_reflected_difference(dims):
    # the metric is sup |u - u flipped along the axis| bit for bit, on every axis
    n = len(dims) // 2
    dom = DiscreteDomain(dims[:n], dims[n:])
    rng = np.random.default_rng(21)
    for values in (rng.standard_normal(dom.num_nodes), rng.uniform(0.0, 3.0, dom.num_nodes)):
        u = GridFn(dom, values)
        for axis in range(n):
            report = check_symmetry(u, axis)
            flipped = np.flip(u.reshaped(), axis).ravel()
            assert report.metric == float(np.max(np.abs(u.values - flipped)))
            assert report.tolerance == verification.SYMMETRY_REL_TOL * float(np.max(np.abs(values)))


def test_weak_mp_on_nonnegative_bump(basis_1d):
    x = UNIT_INTERVAL.axis_nodes(0)
    g = GridFn(UNIT_INTERVAL, np.maximum(np.sin(math.pi * x), 0.0))
    rep = check_weak_mp(basis_1d, g)
    assert rep.passed
    assert rep.metric >= -1e-8 * np.max(g.values)


def test_weak_mp_zero_source(basis_1d):
    g = GridFn(UNIT_INTERVAL, np.zeros(UNIT_INTERVAL.num_nodes))
    rep = check_weak_mp(basis_1d, g)
    assert rep.passed
    assert rep.metric == 0.0


def test_weak_mp_rejects_signed_source(basis_1d):
    vals = np.ones(UNIT_INTERVAL.num_nodes)
    vals[7] = -1e-6
    with pytest.raises(ValueError):
        check_weak_mp(basis_1d, GridFn(UNIT_INTERVAL, vals))


def _sources(domain, count):
    return [GridFn(domain, np.random.default_rng([7, i]).uniform(0.0, 1.0, domain.num_nodes))
            for i in range(count)]


@pytest.mark.parametrize(
    "domain, K, count", [(UNIT_INTERVAL, 64, 100), (make_rectangle(1.0, 1.0, 64, 64), 60, 10)]
)
def test_weak_mp_over_many_sources_reports_the_worst_single_source(domain, K, count):
    basis = eigenpairs(domain, K)
    sources = _sources(domain, count)
    singles = [check_weak_mp(basis, g) for g in sources]
    worst = min(singles, key=lambda rep: rep.metric + rep.tolerance)
    assert singles.index(worst) > 0
    assert check_weak_mp(basis, *sources) == worst


def test_weak_mp_first_of_tied_sources_wins(basis_1d, monkeypatch):
    (g,) = _sources(UNIT_INTERVAL, 1)
    g = GridFn(UNIT_INTERVAL, g.values / g.values.max())  # sup g = 1 exactly
    m = check_weak_mp(basis_1d, g).metric
    doubled = GridFn(UNIT_INTERVAL, 2.0 * g.values)
    # doubling is exact through B_half, so at relative tolerance -m the metric +
    # tolerance of g and of 2g are both exactly 0 while their reports differ
    monkeypatch.setattr(verification, "WEAK_MP_REL_TOL", -m)
    assert check_weak_mp(basis_1d, g, doubled).metric == m
    assert check_weak_mp(basis_1d, doubled, g).metric == 2.0 * m


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize(
    "bad, message",
    [("signed", "requires g >= 0 pointwise"), ("other domain", "must share")],
)
def test_weak_mp_rejects_a_bad_source_at_any_position(basis_1d, position, bad, message):
    good = GridFn(UNIT_INTERVAL, np.ones(UNIT_INTERVAL.num_nodes))
    if bad == "signed":
        vals = np.ones(UNIT_INTERVAL.num_nodes)
        vals[7] = -1e-6
        source = GridFn(UNIT_INTERVAL, vals)
        error = ValueError
    else:
        # analyze refuses it, as every transform refuses a function on another domain
        source = GridFn(make_interval(2.0, 256), np.ones(UNIT_INTERVAL.num_nodes))
        error = DomainMismatchError
    sources = [good, good]
    sources.insert(position, source)
    with pytest.raises(error, match=message):
        check_weak_mp(basis_1d, *sources)


def test_positivity_of_solution(solved_1d):
    rep = check_positivity(synthesize(solved_1d.solution))
    assert rep.passed
    assert rep.metric > 0


def test_positivity_of_zero():
    dom = make_interval(1.0, 32)
    assert check_positivity(GridFn(dom, np.zeros(31))).passed


def test_positivity_fails_on_negative_node():
    dom = make_interval(1.0, 32)
    vals = np.ones(31)
    vals[3] = -0.25
    rep = check_positivity(GridFn(dom, vals))
    assert not rep.passed
    assert rep.metric == -0.25


def test_symmetry_of_even_mode():
    rep = check_symmetry(grid_mode(1), 0)
    assert rep.passed
    assert rep.metric <= 1e-13


def test_symmetry_fails_on_odd_mode():
    u = grid_mode(2)
    rep = check_symmetry(u, 0)
    assert not rep.passed
    assert rep.metric == pytest.approx(2.0 * np.max(np.abs(u.values)), rel=1e-12)


def test_symmetry_of_solution_on_square():
    rep2 = solve(make_rectangle(1.0, 1.0, 64, 64), 2.0, SolveConfig(p=2.0, K=60))
    u = synthesize(rep2.solution)
    assert check_symmetry(u, 0).passed
    assert check_symmetry(u, 1).passed


@given(c=st.floats(min_value=0.01, max_value=100.0), sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=25, deadline=None)
def test_symmetry_metric_scales_linearly(c, sign):
    u = grid_mode(2, N=64)
    base = check_symmetry(u, 0)
    scaled = check_symmetry(GridFn(u.domain, sign * c * u.values), 0)
    assert scaled.metric == pytest.approx(c * base.metric, rel=1e-12)
    assert scaled.passed == base.passed


def test_monotonicity_of_ground_mode():
    assert check_monotonicity(grid_mode(1), 0).passed


def test_monotonicity_fails_on_oscillatory_mode():
    assert not check_monotonicity(grid_mode(3), 0).passed


def test_monotonicity_of_solution(solved_1d):
    assert check_monotonicity(synthesize(solved_1d.solution), 0).passed


def test_hopf_quotient_of_ground_mode():
    rep = check_hopf(grid_mode(1))
    assert rep.passed
    assert rep.metric == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-3)


def test_hopf_fails_on_zero():
    dom = make_interval(1.0, 32)
    rep = check_hopf(GridFn(dom, np.zeros(31)))
    assert not rep.passed
    assert rep.metric == 0.0


def test_hopf_of_solution(solved_1d):
    assert check_hopf(synthesize(solved_1d.solution)).passed


def test_margin_exact_cases():
    dom = make_interval(1.0, 32)
    rep = stability_margin(dom, 1.0)
    assert rep.passed and rep.metric == math.pi - 1.0
    rep = stability_margin(dom, 10.0)
    assert not rep.passed and rep.metric == math.pi - 10.0
    rep = stability_margin(make_interval(math.pi / 20.0, 32), 10.0)
    assert rep.passed and rep.metric == 10.0


def test_margin_rejects_negative_bound():
    with pytest.raises(ValueError):
        stability_margin(make_interval(1.0, 32), -1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_margin_rejects_nonfinite_bound(value):
    with pytest.raises(ValueError, match="c_minus_inf must be finite"):
        stability_margin(make_interval(1.0, 32), value)


@given(L=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=25, deadline=None)
def test_margin_increases_when_interval_shrinks(L):
    whole = stability_margin(make_interval(L, 32), 0.0).metric
    half = stability_margin(make_interval(L / 2.0, 32), 0.0).metric
    assert half > whole


@given(s=st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=25, deadline=None)
def test_margin_increases_when_rectangle_shrinks(s):
    whole = stability_margin(make_rectangle(2.0, 3.0, 16, 16), 0.0).metric
    small = stability_margin(make_rectangle(2.0 * s, 3.0 * s, 16, 16), 0.0).metric
    assert small > whole
