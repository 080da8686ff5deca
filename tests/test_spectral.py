import time
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbp.cascades import UniformSplitCascade
from wbp.finite_type import two_type_flip_law
from wbp.population import ReproductionLaw
from wbp.spectral import (
    MeanKernel,
    SpectralConvergenceError,
    TypeGrid,
    alpha_burn_in,
    alpha_sequence,
    attach_alpha,
    build_mean_kernel,
    estimate_beta,
    kernel_power_apply,
    kernel_power_expect,
    power_iteration,
    support_period,
)
from wbp.streams import derive_stream


def K(rows, order=1.0):
    rows = np.asarray(rows, dtype=np.float64)
    return MeanKernel.from_dense(rows, TypeGrid.finite(rows.shape[0]), order)


class IdentityLaw(ReproductionLaw):
    def sample_progeny(self, x, rng):
        return [(1.0, x)], 0.0

    def moment_rows(self, grid, order):
        return np.arange(grid.size)[:, None], np.ones((grid.size, 1))


def test_build_identity_kernel():
    k = build_mean_kernel(IdentityLaw(), TypeGrid.finite(2))
    assert np.array_equal(k.dense(), np.eye(2))


def test_build_flip_kernel_both_orders():
    law = two_type_flip_law()
    grid = TypeGrid.finite(2)
    k1 = build_mean_kernel(law, grid, 1.0)
    assert np.array_equal(k1.dense(), [[0.0, 1.0], [1.0, 0.0]])
    k2 = build_mean_kernel(law, grid, 2.0)
    assert np.array_equal(k2.dense(), [[0.0, 0.5], [0.5, 0.0]])


def test_build_cascade_second_moment():
    # uniform split on a one-point grid: E(U^2) + E((1-U)^2) = 2/3
    k = build_mean_kernel(UniformSplitCascade(), TypeGrid.finite(1), 2.0)
    assert k.dense()[0, 0] == pytest.approx(2.0 / 3.0)


def test_build_monte_carlo_fallback():
    class OpaqueLaw(ReproductionLaw):
        def sample_progeny(self, x, rng):
            return [(rng.random(), x)], 0.0

    k = build_mean_kernel(
        OpaqueLaw(), TypeGrid.finite(1), 1.0, mc_budget=20_000, rng=derive_stream(0, 0)
    )
    assert k.stderr is not None
    assert k.cols.tolist() == [[0]]
    assert abs(k.matrix[0, 0] - 0.5) <= 4 * k.stderr[0, 0]


class RaggedBroods(ReproductionLaw):
    """0 to 3 children per draw, on random types of a finite grid (repeats allowed)."""

    def __init__(self, d):
        self.d = d

    def sample_progeny(self, x, rng):
        n = int(rng.integers(0, 4))
        return [(float(rng.random()), int(rng.integers(0, self.d))) for _ in range(n)], 0.0


def per_child_kernel(law, grid, order, mc_budget, rng):
    # reference: the child-by-child Monte Carlo loop build_mean_kernel batches
    d = grid.size
    matrix = np.zeros((d, d))
    stderr = np.zeros((d, d))
    for i in range(d):
        acc = np.zeros((mc_budget, d))
        for b in range(mc_budget):
            offspring, _ = law.sample_progeny(grid.points[i], rng)
            for u, y in offspring:
                acc[b, grid.locate([y])[0]] += u**order
        matrix[i] = acc.mean(axis=0)
        stderr[i] = acc.std(axis=0, ddof=1) / np.sqrt(mc_budget)
    return matrix, stderr


@pytest.mark.parametrize("order", [1.0, 1.5, 2.0])
def test_monte_carlo_kernel_bit_identical_to_per_child_loop(order):
    law, grid = RaggedBroods(6), TypeGrid.finite(6)
    k = build_mean_kernel(law, grid, order, mc_budget=400, rng=derive_stream(3, 1))
    matrix, stderr = per_child_kernel(law, grid, order, 400, derive_stream(3, 1))
    assert np.array_equal(k.dense(), matrix)
    # stderr is aligned with the stored cells; every cell of every row was reached
    assert k.matrix.shape == (6, 6)
    assert np.array_equal(k.stderr, np.take_along_axis(stderr, k.cols, axis=1))


def test_kernel_power_apply_examples():
    jordan = K([[2.0, 1.0], [0.0, 2.0]])
    assert np.array_equal(kernel_power_apply(jordan, [1.0, 1.0], 0), [1.0, 1.0])
    assert np.array_equal(kernel_power_apply(jordan, [1.0, 1.0], 3), [20.0, 8.0])
    ident = K(np.eye(3))
    f = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(kernel_power_apply(ident, f, 11), f)


def test_kernel_power_apply_logscale_large_n():
    k = K([[2.0]])
    v, logscale = kernel_power_apply(k, [1.0], 5000, return_logscale=True)
    assert v[0] == 1.0
    assert logscale == pytest.approx(5000 * np.log(2.0), rel=1e-12)


def test_kernel_power_expect():
    flip = K([[0.0, 1.0], [1.0, 0.0]])
    init = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    values = [kernel_power_expect(flip, init, f, n) for n in range(5)]
    assert values == [1.0, 0.0, 1.0, 0.0, 1.0]


def test_power_iteration_scaled_identity():
    sd = power_iteration(K(3.0 * np.eye(4)))
    assert sd.theta == pytest.approx(3.0)
    assert np.allclose(sd.eta, 1.0)
    assert np.allclose(sd.nu, 0.25)


def test_power_iteration_ones_matrix():
    sd = power_iteration(K([[1.0, 1.0], [1.0, 1.0]]))
    assert sd.theta == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(sd.eta, [1.0, 1.0])
    assert np.allclose(sd.nu, [0.5, 0.5])


def test_power_iteration_periodic_raises():
    with pytest.raises(SpectralConvergenceError):
        power_iteration(K([[0.0, 1.0], [1.0, 0.0]]), max_iter=5000)


def test_power_iteration_refuses_period_two_at_once():
    t0 = time.perf_counter()
    with pytest.raises(SpectralConvergenceError, match="period 2"):
        power_iteration(K([[0.0, 1.0], [1.0, 0.0]]))
    assert time.perf_counter() - t0 < 0.05


def brute_force_period(a):
    """gcd of the return times n <= 3 d^2 to type 0, or None if ``a`` is reducible."""
    d = a.shape[0]
    reach = np.eye(d, dtype=np.int64) + a
    for _ in range(d):
        reach = np.minimum(reach @ (np.eye(d, dtype=np.int64) + a), 1)
    if not np.all(reach > 0):
        return None
    period, power = 0, np.eye(d, dtype=np.int64)
    for n in range(1, 3 * d * d + 1):
        power = np.minimum(power @ a, 1)
        if power[0, 0]:
            period = gcd(period, n)
    return period


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(st.booleans(), min_size=d * d, max_size=d * d)))
def test_support_period_matches_brute_force(bits):
    d = int(round(len(bits) ** 0.5))
    a = np.array(bits, dtype=np.int64).reshape(d, d)
    assert support_period(K(a)) == brute_force_period(a)


def test_power_iteration_zero_raises():
    with pytest.raises(SpectralConvergenceError):
        power_iteration(K(np.zeros((2, 2))))


def test_power_iteration_random_primitive_matches_eig():
    rng = np.random.default_rng(123)
    for _ in range(10):
        m = rng.uniform(0.05, 1.0, size=(5, 5))
        sd = power_iteration(K(m))
        # oracle: dense eigensolver
        lam = np.max(np.abs(np.linalg.eigvals(m)))
        assert sd.theta == pytest.approx(lam, abs=1e-9)
        assert sd.residual_right <= 1e-8
        assert sd.residual_left <= 1e-8


def test_estimate_beta_scaled_identity():
    fit = estimate_beta(K(2.0 * np.eye(3)), np.ones(3))
    assert fit.theta == pytest.approx(2.0, abs=1e-9)
    assert fit.beta == 0


def test_estimate_beta_jordan_block():
    # oracle: exact Jordan powers give ||Q^n f|| = 2^n (1 + n/2)
    fit = estimate_beta(K([[2.0, 1.0], [0.0, 2.0]]), np.ones(2))
    assert fit.theta == pytest.approx(2.0, abs=1e-6)
    assert fit.beta == 1
    assert abs(fit.beta_raw - 1.0) <= 0.25


def test_estimate_beta_ones_matrix():
    fit = estimate_beta(K([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
    assert fit.theta == pytest.approx(2.0, abs=1e-9)
    assert fit.beta == 0


def test_estimate_beta_primitive_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.uniform(0.1, 1.0, size=(4, 4))
        fit = estimate_beta(K(m), np.ones(4), window=range(64, 129))
        lam = np.max(np.abs(np.linalg.eigvals(m)))
        assert fit.beta == 0
        assert fit.theta == pytest.approx(lam, abs=1e-6)


def test_estimate_beta_window_validation():
    with pytest.raises(ValueError):
        estimate_beta(K(np.eye(2)), np.ones(2), window=range(10, 14))


def test_alpha_sequence_eigenfunction_is_zero():
    m = K([[1.0, 1.0], [1.0, 1.0]])
    sd = power_iteration(m)
    alpha = alpha_sequence(m, sd.eta, sd, np.ones(2), 10)
    assert np.allclose(alpha, 0.0, atol=1e-12)


def test_alpha_sequence_ones_matrix_indicator():
    # Q^n f = 2^(n-1) (1,1) for f = (1,0), so alpha_n = 0 from n = 1 on
    m = K([[1.0, 1.0], [1.0, 1.0]])
    sd = power_iteration(m)
    alpha = alpha_sequence(m, np.array([1.0, 0.0]), sd, np.ones(2), 8)
    assert np.allclose(alpha, 0.0, atol=1e-12)


def test_alpha_sequence_decays_for_mixing_chain():
    m = K([[0.6, 0.4], [0.3, 0.7]])
    sd = power_iteration(m)
    sd = attach_alpha(m, np.array([1.0, 0.0]), sd, np.ones(2), 12)
    alpha = sd.alpha
    assert alpha[0] > 0
    # second eigenvalue 0.3: geometric decay
    ratios = alpha[1:] / alpha[:-1]
    assert np.allclose(ratios, 0.3, atol=1e-6)
    assert sd.alpha_burn_in == 0


def test_alpha_burn_in_detects_initial_rise():
    seq = np.array([1.0, 2.0, 1.5, 0.7, 0.3])
    assert alpha_burn_in(seq) == 1


def test_interval_grid_locate():
    grid = TypeGrid.interval(0.0, 1.0, 0.25)
    assert grid.size == 4
    assert np.array_equal(grid.locate([0.0, 0.1, 0.3, 0.99, 1.0]), [0, 0, 1, 3, 3])
    assert np.allclose(grid.points, [0.125, 0.375, 0.625, 0.875])


def test_kernel_validation():
    with pytest.raises(ValueError):
        MeanKernel.from_dense(np.array([[1.0, -0.1], [0.0, 1.0]]), TypeGrid.finite(2))
    with pytest.raises(ValueError):
        MeanKernel.from_dense(np.array([[np.inf, 0.0], [0.0, 1.0]]), TypeGrid.finite(2))
    # cells outside the grid, cols not aligned with the masses, rows not one per grid point
    with pytest.raises(ValueError, match="index the grid"):
        MeanKernel(np.array([[0], [2]]), np.ones((2, 1)), TypeGrid.finite(2))
    with pytest.raises(ValueError, match="shape"):
        MeanKernel(np.zeros((2, 2), dtype=np.int64), np.ones((2, 1)), TypeGrid.finite(2))
    with pytest.raises(ValueError, match="shape"):
        MeanKernel(np.zeros((3, 1), dtype=np.int64), np.ones((3, 1)), TypeGrid.finite(2))
