"""Dense reference implementations used as test oracles.

Everything here is built directly from the closed-form sine eigenpairs with
dense numpy arrays and plain trapezoid quadrature, sharing no code with the
package under test. The frozen constants below were produced by running this
module before the package existed; they pin the baselines so a regression in
the package cannot silently shift them.
"""

import math

import numpy as np

# Fixed-point reference on the unit interval, p = 2: 63 sine modes on the
# 64-point grid (the densest basis that grid supports), 4000 iterations.
ORACLE_I0_1D = 2.7142243775270591
ORACLE_SUP_1D = 3.9568991129589479

# Worst relative minimum of the inverse-half-Laplacian image over the
# 100-source nonnegativity battery (seeds 1000+i, uniform [0,1] node values,
# unit interval, N = 256, K = 64). Strictly positive.
WEAK_MP_WORST_REL = 4.9539837292498839e-3

# Minimum entry of the dense inverse-half-Laplacian node matrix at the same
# discretization. Slightly negative: positivity of the map on nonnegative
# inputs is not entrywise positivity of the matrix.
DENSE_B_MIN_ENTRY = -1.8901739829998141e-05

# Half-plane energy quotient of the extremal family, quadrature on the
# stretched grid below with R = 200 and M = 4096 panels.
EXTREMAL_Q_EPS1 = 1.7567279794346384
EXTREMAL_Q_EPS2 = 1.7411684427019436


def interval_nodes(L: float, N: int) -> np.ndarray:
    return np.arange(1, N) * (L / N)


def interval_eigenvalues(L: float, K: int) -> np.ndarray:
    k = np.arange(1, K + 1)
    return (k * math.pi / L) ** 2


def sine_matrix(L: float, N: int, K: int) -> np.ndarray:
    """Rows are the normalized sine modes sampled at the interior nodes."""
    x = interval_nodes(L, N)
    k = np.arange(1, K + 1)
    return np.sqrt(2.0 / L) * np.sin(np.outer(k, x) * math.pi / L)


def product_sine_matrix(lengths, counts, index_tuples) -> np.ndarray:
    """Rows are the normalized product sines of the index tuples on the box.

    Row (j_1, ..., j_n) is 2^(n/2) / sqrt(L_1 ... L_n) times the product over the
    axes of sin(j_a pi x_a / L_a) at the interior nodes x, in C order over the
    node grid.
    """
    grids = np.meshgrid(*(interval_nodes(L, N) for L, N in zip(lengths, counts)), indexing="ij")
    coords = [g.ravel() for g in grids]
    scale = 2.0 ** (len(lengths) / 2) / math.sqrt(math.prod(lengths))
    rows = []
    for index in index_tuples:
        row = scale
        for j, x, L in zip(index, coords, lengths):
            row = row * np.sin(j * math.pi * x / L)
        rows.append(row)
    return np.array(rows)


def analyze_dense(values: np.ndarray, L: float, N: int, K: int) -> np.ndarray:
    return sine_matrix(L, N, K) @ values * (L / N)


def b_half_node_matrix(L: float, N: int, K: int) -> np.ndarray:
    """Dense node-to-node matrix of the inverse half power."""
    s = np.sqrt(interval_eigenvalues(L, K))
    Phi = sine_matrix(L, N, K)
    return Phi.T @ np.diag(1.0 / s) @ Phi * (L / N)


def fixed_point_reference(L: float, N: int, K: int, p: float, iters: int = 4000):
    """Normalized inverse iteration for the power problem, dense matrices only.

    Returns (I0, sup norm of the rescaled solution, normalized coefficients).
    """
    h = L / N
    s = np.sqrt(interval_eigenvalues(L, K))
    Phi = sine_matrix(L, N, K)
    w = Phi[0].copy()
    w /= (np.sum(np.abs(w) ** (p + 1)) * h) ** (1.0 / (p + 1))
    for _ in range(iters):
        b = (Phi @ (np.maximum(w, 0.0) ** p) * h) / s
        u = b @ Phi
        w = u / (np.sum(np.abs(u) ** (p + 1)) * h) ** (1.0 / (p + 1))
    b = Phi @ w * h
    I0 = float(np.sum(b * b * s))
    rescaled = (I0 ** (1.0 / (p - 1.0)) * b) @ Phi
    return I0, float(np.max(rescaled)), b


def stretched_axis(eps: float, R: float, M: int) -> np.ndarray:
    """Uniform panels out to 10*eps, geometric panels from there to R."""
    cut = min(10.0 * eps, R)
    m_uni = M // 2
    if cut >= R:
        return np.linspace(0.0, R, M + 1)
    m_geo = M - m_uni
    uni = np.linspace(0.0, cut, m_uni + 1)
    geo = cut * (R / cut) ** (np.arange(1, m_geo + 1) / m_geo)
    return np.concatenate([uni, geo])


def extremal_quotient_reference(eps: float, R: float, M: int) -> float:
    """Trapezoid quadrature of the half-plane energy quotient, n = 2."""
    rho = stretched_axis(eps, R, M)
    ys = stretched_axis(eps, R, M)
    num_rows = np.empty(ys.size)
    chunk = 256
    for a in range(0, ys.size, chunk):
        yy = ys[a : a + chunk, None]
        f = 2.0 * np.pi * rho[None, :] * eps / (rho[None, :] ** 2 + (yy + eps) ** 2) ** 2
        num_rows[a : a + chunk] = np.trapezoid(f, rho, axis=1)
    num = np.trapezoid(num_rows, ys)
    den = np.trapezoid(2.0 * np.pi * rho * eps**2 / (rho**2 + eps**2) ** 2, rho)
    return float(num / math.sqrt(den))


def weak_mp_battery(L: float, N: int, K: int, nsamples: int):
    """Relative minima of the inverse-half-power image over seeded sources.

    Returns (worst relative minimum, min entry of the dense node matrix).
    """
    B = b_half_node_matrix(L, N, K)
    worst = math.inf
    for i in range(nsamples):
        rng = np.random.default_rng(1000 + i)
        g = rng.uniform(0.0, 1.0, size=N - 1)
        u = B @ g
        worst = min(worst, float(np.min(u) / np.max(g)))
    return worst, float(np.min(B))
