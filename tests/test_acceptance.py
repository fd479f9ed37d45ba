"""End-to-end acceptance checks, one test per numbered criterion.

Each test runs its criterion at the stated tolerance and appends a
(number, label, passed) entry to RESULTS; conftest prints the table after the
run. Oracles live in dense_reference and were frozen before the package was
built.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

import dense_reference as ref
import halflap as hl

RESULTS = []


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        RESULTS.append((num, label, False))
        raise
    RESULTS.append((num, label, True))


def test_criterion_01_operator_identities_exact():
    with criterion(1, "operator identities exact, K = 64, < 0.1 s"):
        dom = hl.make_interval(1.0, 256)
        basis = hl.eigenpairs(dom, 64)
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(5):
            b = rng.standard_normal(64)
            f = hl.SpectralFn(basis, b)
            assert np.array_equal(hl.apply_B_half(hl.apply_A_half(f)).coeffs, b)
            assert np.array_equal(
                hl.apply_B_half(hl.apply_B_half(f)).coeffs,
                hl.apply_inv_laplacian(f).coeffs,
            )
        for k in range(64):
            ek = np.zeros(64)
            ek[k] = 1.0
            out = hl.apply_A_half(hl.SpectralFn(basis, ek)).coeffs
            want = np.zeros(64)
            want[k] = basis.sqrt_lambdas[k]
            assert np.array_equal(out, want)
        assert time.perf_counter() - t0 < 0.1


def test_criterion_02_energy_matches_cylinder_quadrature():
    with criterion(2, "Dirichlet energy = cylinder quadrature within 1%"):
        basis = hl.eigenpairs(hl.make_interval(1.0, 256), 8)
        rng = np.random.default_rng(2)
        x = np.linspace(0.0, 1.0, 513)
        y = np.linspace(0.0, 6.0 / math.pi, 513)
        k = np.arange(1, 9)
        s = k * math.pi
        sin_kx = math.sqrt(2.0) * np.sin(np.outer(k, x) * math.pi)
        cos_kx = math.sqrt(2.0) * np.cos(np.outer(k, x) * math.pi)
        decay = np.exp(-np.outer(y, s))
        t0 = time.perf_counter()
        for _ in range(10):
            b = rng.standard_normal(8)
            vx = (decay * (b * s)) @ cos_kx
            vy = (decay * (-b * s)) @ sin_kx
            quad = np.trapezoid(np.trapezoid(vx**2 + vy**2, x, axis=1), y)
            energy = hl.dirichlet_energy(hl.SpectralFn(basis, b))
            assert abs(quad - energy) <= 0.01 * energy
        assert time.perf_counter() - t0 < 10.0


def test_criterion_03_dtn_error_halves_with_step():
    with criterion(3, "dtn_fd sup-error halves as h halves"):
        basis = hl.eigenpairs(hl.make_interval(1.0, 256), 8)
        rng = np.random.default_rng(3)
        ground = np.zeros(8)
        ground[0] = 1.0
        inputs = [ground] + [rng.standard_normal(8) for _ in range(5)]
        for b in inputs:
            f = hl.SpectralFn(basis, b)
            exact = hl.synthesize(hl.apply_A_half(f)).values
            errs = [
                np.max(np.abs(hl.dtn_fd(f, h).values - exact))
                for h in (1e-2, 5e-3, 2.5e-3)
            ]
            for big, small in zip(errs, errs[1:]):
                assert 1.7 <= big / small <= 2.3


def test_criterion_04_matches_second_differences():
    with criterion(4, "squared operator matches centered second differences"):
        rng = np.random.default_rng(5)
        b = rng.standard_normal(8)

        def rel_error(N):
            basis = hl.eigenpairs(hl.make_interval(1.0, N), 8)
            f = hl.SpectralFn(basis, b)
            u = hl.synthesize(f).values
            target = hl.synthesize(hl.apply_A_half(hl.apply_A_half(f))).values
            h = 1.0 / N
            padded = np.concatenate([[0.0], u, [0.0]])
            d2 = (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / h**2
            return np.max(np.abs(-d2 - target)) / np.max(np.abs(target))

        coarse = rel_error(1024)
        fine = rel_error(2048)
        assert coarse <= 1e-3
        assert coarse / fine >= 3.0


def test_criterion_05_solve_1d_full_battery():
    with criterion(5, "1D solve: residual, positivity, symmetry, Hopf, oracle I0, < 1 s"):
        dom = hl.make_interval(1.0, 256)
        t0 = time.perf_counter()
        rep = hl.solve(dom, 2.0, hl.SolveConfig(p=2.0, K=64))
        elapsed = time.perf_counter() - t0
        assert rep.converged
        assert rep.residual_inf <= 1e-8
        u = hl.synthesize(rep.solution)
        assert np.min(u.values) > 0
        assert hl.check_symmetry(u, 0).metric <= 1e-8 * rep.sup_norm
        assert hl.check_monotonicity(u, 0).passed
        hopf = hl.check_hopf(u)
        assert hopf.passed and hopf.metric > 0
        assert abs(rep.I0 - ref.ORACLE_I0_1D) <= 1e-6 * ref.ORACLE_I0_1D
        assert elapsed < 1.0


def test_criterion_06_solve_2d_square():
    with criterion(6, "2D solve on the unit square: residual, symmetry, Hopf, < 30 s"):
        dom = hl.make_rectangle(1.0, 1.0, 64, 64)
        t0 = time.perf_counter()
        rep = hl.solve(dom, 2.0, hl.SolveConfig(p=2.0, K=60))
        elapsed = time.perf_counter() - t0
        assert rep.converged
        assert rep.residual_inf <= 1e-6
        u = hl.synthesize(rep.solution)
        assert hl.check_symmetry(u, 0).passed
        assert hl.check_symmetry(u, 1).passed
        assert hl.check_positivity(u).passed
        assert hl.check_hopf(u).passed
        assert elapsed < 30.0


def test_criterion_07_sweep_and_near_critical_override():
    with criterion(7, "sweep converges; near-critical override reports, never crashes"):
        dom = hl.make_rectangle(1.0, 1.0, 64, 64)
        reports = hl.sweep(dom, [1.5, 2.0, 2.5], hl.SolveConfig(K=60))
        assert [r.p for r in reports] == [1.5, 2.0, 2.5]
        for r in reports:
            assert r.converged
            assert math.isfinite(r.sup_norm)
        near = hl.sweep(dom, [2.9], hl.SolveConfig(K=60, allow_near_critical=True))
        assert len(near) == 1
        assert isinstance(near[0], hl.SolveReport)
        assert math.isfinite(near[0].sup_norm) or not near[0].converged


def test_criterion_08_weak_maximum_principle_battery():
    with criterion(8, "weak maximum principle over 100 seeded sources"):
        dom = hl.make_interval(1.0, 256)
        basis = hl.eigenpairs(dom, 64)
        worst_rel = math.inf
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            g = hl.GridFn(dom, rng.uniform(0.0, 1.0, 255))
            rep = hl.check_weak_mp(basis, g)
            assert rep.passed
            sup = np.max(g.values)
            assert rep.metric >= -1e-8 * sup
            worst_rel = min(worst_rel, rep.metric / sup)
        dense_worst, _ = ref.weak_mp_battery(1.0, 256, 64, 100)
        assert abs(dense_worst - ref.WEAK_MP_WORST_REL) <= 1e-15
        assert abs(worst_rel - dense_worst) <= 1e-9
        assert dense_worst > -1e-8


def test_criterion_09_trace_extremal_quotient():
    with criterion(9, "extremal quotient near the sharp trace constant, < 10 s"):
        target = hl.best_trace_constant(2)
        t0 = time.perf_counter()
        q1 = hl.extremal_quotient(1.0, 200.0, 4096)
        q2 = hl.extremal_quotient(2.0, 200.0, 4096)
        elapsed = time.perf_counter() - t0
        assert 0.99 * target <= q1 <= 1.03 * target
        assert abs(q2 - q1) <= 0.01 * q1
        assert elapsed < 10.0


def test_criterion_10_hardy_quotient_stability():
    with criterion(10, "Hardy quotient finite, positive, refinement-stable"):
        rng = np.random.default_rng(4)
        basis_c = hl.eigenpairs(hl.make_interval(1.0, 512), 16)
        basis_f = hl.eigenpairs(hl.make_interval(1.0, 1024), 16)
        for _ in range(50):
            b = rng.standard_normal(16)
            qc = hl.hardy_quotient(hl.SpectralFn(basis_c, b))
            qf = hl.hardy_quotient(hl.SpectralFn(basis_f, b))
            assert math.isfinite(qc) and qc > 0
            assert abs(qf - qc) < 0.05 * qc


def test_criterion_11_stability_margin_cases():
    with criterion(11, "stability margin exact cases and shrink monotonicity"):
        dom = hl.make_interval(1.0, 32)
        rep = hl.stability_margin(dom, 1.0)
        assert rep.passed and rep.metric == math.pi - 1.0
        rep = hl.stability_margin(dom, 10.0)
        assert not rep.passed and rep.metric == math.pi - 10.0
        rep = hl.stability_margin(hl.make_interval(math.pi / 20.0, 32), 10.0)
        assert rep.passed and rep.metric == 10.0
        rng = np.random.default_rng(6)
        for _ in range(10):
            L = float(rng.uniform(0.05, 20.0))
            whole = hl.stability_margin(hl.make_interval(L, 32), 0.0).metric
            half = hl.stability_margin(hl.make_interval(L / 2.0, 32), 0.0).metric
            assert half > whole


def test_criterion_12_cli_byte_determinism(tmp_path):
    with criterion(12, "identical config and seed give byte-identical JSON"):
        outputs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            cmd = [
                sys.executable, "-m", "halflap.cli", "solve",
                "--domain", "interval:1:256", "--p", "2", "--modes", "64",
                "--seed", "7", "--output", str(path),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].lstrip().startswith(b"{")
