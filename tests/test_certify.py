import numpy as np
import pytest

from dense_kernels import from_dense
from wbp.cascades import ScaledUniformCascade, UniformSplitCascade, finite_cascade
from wbp.certify import (
    CertificationError,
    MDCertificate,
    certify_md,
    estimate_c1,
    estimate_c3,
    fit_tail_ratio,
    proxy_gap_bound,
    theorem1_rhs,
)
from wbp.ifs import IfsLaw
from wbp.population import ReproductionLaw
from wbp.spectral import TypeGrid, attach_alpha, build_mean_kernel, power_iteration
from wbp.streams import derive_stream

ONE_POINT = TypeGrid.finite(1)


def scalar_kernel(value, order=1.0):
    return from_dense(np.array([[value]]), ONE_POINT, order)


def certified_uniform_split(independent=True, n_max=40):
    law = UniformSplitCascade(independent=independent)
    k1 = scalar_kernel(law.factor_moment(1.0))
    kp = scalar_kernel(law.factor_moment(2.0), order=2.0)
    sd = power_iteration(k1)
    attach_alpha(k1, np.ones(1), sd, n_max)
    cert = certify_md(k1, kp, sd, n_max, law=law, rng=derive_stream(0, 0))
    return law, k1, kp, sd, cert


def test_gamma_witness_uniform_split_exact():
    # Q^(2) is the scalar 2/3: gamma_n = (2/3)^(n/2), Gamma_0 = 1/(1 - sqrt(2/3))
    law, k1, kp, sd, cert = certified_uniform_split()
    n = np.arange(cert.n_max + 1)
    assert np.allclose(cert.gamma, (2.0 / 3.0) ** (n / 2.0), rtol=1e-12)
    r = np.sqrt(2.0 / 3.0)
    assert cert.tail_ratio == pytest.approx(r, rel=1e-12)
    assert cert.Gamma(0) == pytest.approx(1.0 / (1.0 - r), rel=1e-9)
    # geometric series oracle at general m
    for m in (1, 5, 17, 60):
        assert cert.Gamma(m) == pytest.approx(r**m / (1.0 - r), rel=1e-9)


def test_c1_is_one_for_conservative_kernel():
    law, k1, kp, sd, cert = certified_uniform_split()
    assert cert.c1 == 1.0


def test_c3_upper_bound_close_to_variance():
    # exact one-step dispersion for p = 2 is Var(U - U') = 1/6
    law = UniformSplitCascade(independent=True)
    k1 = scalar_kernel(1.0)
    c3 = estimate_c3(law, k1, 2.0, derive_stream(1, 0), budget=4000)
    assert 1.0 / 6.0 <= c3 <= 1.0 / 6.0 * 1.25  # inflated, but not by much


@pytest.mark.parametrize("budget", [0, 1])
def test_c3_refuses_a_budget_without_a_standard_error(budget):
    # the NaN bound of a budget below 2 once fell out of max(c3, nan), leaving c3 = 0
    law = UniformSplitCascade(independent=True)
    k1 = scalar_kernel(1.0)
    with pytest.warns(RuntimeWarning), pytest.raises(CertificationError, match=f"from {budget} draws"):
        estimate_c3(law, k1, 2.0, derive_stream(1, 0), budget=budget)


def per_draw_c3(law, k1, p, rng, budget=2000, max_points=32, max_cells=16):
    # reference: the per-draw, per-test-function loop estimate_c3 batches, in
    # Python floats; each brood's sum adds its children's factors left to
    # right, and the (budget, tests) deviations take one array power
    grid = k1.grid
    d = grid.size
    cells = np.unique(np.linspace(0, d - 1, min(d, max_cells)).astype(int))
    dictionary = [np.eye(d)[j].tolist() for j in cells] + [[1.0] * d, [-1.0] * d]
    points = np.unique(np.linspace(0, d - 1, min(d, max_points)).astype(int))

    c3 = 0.0
    for i in points:
        x = grid.points[i]
        exact = [float(k1.apply(g)[i]) for g in dictionary]
        devs = np.zeros((budget, len(dictionary)))
        for b in range(budget):
            offspring = law.sample_progeny(x, rng)
            us = [float(u) for u, _ in offspring]
            ys = grid.locate([y for _, y in offspring]).tolist()
            for j, g in enumerate(dictionary):
                z = 0.0
                for u, y in zip(us, ys):
                    z += u * g[y]
                devs[b, j] = abs(z - exact[j])
        devs = devs**p
        means = devs.mean(axis=0)
        ses = devs.std(axis=0, ddof=1) / np.sqrt(budget)
        for j in range(len(dictionary)):
            c3 = max(c3, float(means[j] + 2.3263478740408408 * ses[j]))
    return c3


class RaggedBroods(ReproductionLaw):
    """``lo`` to ``hi`` children per draw, on random cells of a finite grid (repeats allowed)."""

    def __init__(self, d, lo=0, hi=3):
        self.d, self.lo, self.hi = d, lo, hi

    def sample_progeny(self, x, rng):
        n = int(rng.integers(self.lo, self.hi + 1))
        return [(float(rng.random()), int(rng.integers(0, self.d))) for _ in range(n)]


def assert_c3_matches_per_draw(law, k1, p, seed, **kw):
    fast = estimate_c3(law, k1, p, derive_stream(seed, 0), **kw)
    slow = per_draw_c3(law, k1, p, derive_stream(seed, 0), **kw)
    assert fast == slow


def random_kernel(d, seed):
    return from_dense(np.random.default_rng(seed).uniform(0.0, 0.3, size=(d, d)), TypeGrid.finite(d))


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_c3_bit_identical_to_per_draw_loop_on_halving_ifs(p):
    law = IfsLaw(((0.5, 0.0), (0.5, 0.5)), (0.5, 0.5), UniformSplitCascade())
    grid = TypeGrid.interval(0.0, 1.0, 2.0**-6)
    k1 = build_mean_kernel(law, grid, 1.0)
    assert_c3_matches_per_draw(law, k1, p, seed=7, budget=150)


def test_c3_bit_identical_to_per_draw_loop_on_ragged_broods():
    d = 24  # more cells than indicators: some children fall outside the dictionary
    assert_c3_matches_per_draw(RaggedBroods(d), random_kernel(d, 5), 1.5, seed=8, budget=300)


def test_c3_bit_identical_to_per_draw_loop_at_tiny_budgets():
    # at budget 3 a last-bit change in one draw's deviation reaches c3, which
    # a mean over thousands of draws would round away
    d = 24
    k1 = random_kernel(d, 6)
    for seed in range(40):
        assert_c3_matches_per_draw(RaggedBroods(d), k1, 1.5, seed=seed, budget=3)


def test_c3_of_broods_of_16_or_more_children_is_summed_in_order():
    # BLAS dot products sum 16 or more entries in an unrolled order picked
    # at run time; the brood totals must still add left to right
    d = 24
    k1 = random_kernel(d, 9)
    for seed in range(20):
        assert_c3_matches_per_draw(RaggedBroods(d, lo=16, hi=40), k1, 1.5, seed=seed, budget=5)


def test_c3_bit_identical_to_per_draw_loop_on_one_point_cascade():
    law = UniformSplitCascade(independent=True)
    assert_c3_matches_per_draw(law, scalar_kernel(1.0), 2.0, seed=1, budget=4000)


def test_deterministic_one_child_certificate():
    # Q and Q^(p) are 1x1 scalars: all certificate numbers exact
    law = finite_cascade([(0.75,)])
    k1 = scalar_kernel(0.75)
    kp = scalar_kernel(0.75**2, order=2.0)
    sd = power_iteration(k1)
    attach_alpha(k1, np.ones(1), sd, 20)
    cert = certify_md(k1, kp, sd, 20, law=law, rng=derive_stream(0, 1))
    assert cert.c1 == 1.0
    # scalar arithmetic oracle: gamma_n = theta^-n (theta_p)^(n/2) = 1
    assert np.allclose(cert.gamma, 1.0)
    assert cert.c3 == 0.0
    assert cert.c0 == 0.0
    # RHS vanishes: no dispersion, no deviation
    assert theorem1_rhs(cert, sd, 1.0, 1.0, 1.0, 1.0, 5, 5) == 0.0


def test_certification_refused_without_decay():
    # positive dispersion but non-summable witnesses: refuse
    law = ScaledUniformCascade(c=2.0)  # E sum u^2 = 4/3 > 1 = theta^2
    k1 = scalar_kernel(1.0)
    kp = scalar_kernel(4.0 / 3.0, order=2.0)
    sd = power_iteration(k1)
    attach_alpha(k1, np.ones(1), sd, 20)
    with pytest.raises(CertificationError):
        certify_md(k1, kp, sd, 20, law=law, rng=derive_stream(0, 2))


def test_theorem1_rhs_zero_when_all_terms_vanish():
    cert = MDCertificate(
        p=2.0,
        c1=1.0,
        c2=1.0,
        c3=0.125,
        gamma=np.zeros(5),
        tail_ratio=0.0,
        n_max=4,
    )
    sd_stub = power_iteration(scalar_kernel(1.0))
    sd_stub.alpha = np.zeros(8)
    assert theorem1_rhs(cert, sd_stub, 1.0, 1.0, 1.0, 1.0, 2, 3) == 0.0


def test_theorem1_rhs_beta_zero_bracket_drops():
    # with beta = 0 only the Gamma_m term and the alpha_n c1 term survive
    law, k1, kp, sd, cert = certified_uniform_split()
    sd.alpha = np.full(20, 0.01)
    m, n = 3, 2
    rhs = theorem1_rhs(cert, sd, 1.0, 1.0, 1.0, 1.0, m, n)
    expected = (
        cert.c0 / sd.theta * (cert.c1 * 1.0 + 1.0) * cert.Gamma(m) * 1.0
        + (0.01 * cert.c1) * (cert.c0 / sd.theta * cert.Gamma(0) * 1.0 + 1.0)
    )
    assert rhs == pytest.approx(expected, rel=1e-12)


def test_theorem1_rhs_term_by_term_recomputation():
    # independent spreadsheet-style evaluation of every named term
    law, k1, kp, sd, cert = certified_uniform_split()
    m, n, p = 10, 10, 2.0
    f_norm = eta_norm = 1.0
    init_p = init_1 = 1.0
    r = np.sqrt(2.0 / 3.0)
    gamma_m = r**m / (1.0 - r)
    gamma_0 = 1.0 / (1.0 - r)
    c0 = np.sqrt(2.0 * 1.0 * cert.c3)
    alpha_n = float(sd.alpha[n - 1])
    term1 = c0 * (cert.c1 * f_norm + eta_norm) * gamma_m * init_p ** (1 / p)
    term2 = (alpha_n * cert.c1 + eta_norm * 0.0) * (c0 * gamma_0 * init_p ** (1 / p) + init_1 ** (1 / p))
    rhs = theorem1_rhs(cert, sd, f_norm, eta_norm, init_p, init_1, m, n)
    assert rhs == pytest.approx(term1 + term2, rel=1e-9)


def test_theorem1_rhs_monotone_in_m():
    law, k1, kp, sd, cert = certified_uniform_split()
    values = [theorem1_rhs(cert, sd, 1.0, 1.0, 1.0, 1.0, m, 4) for m in range(1, 30)]
    assert all(a >= b - 1e-15 for a, b in zip(values[:-1], values[1:]))


def test_theorem1_rhs_polynomial_ratio_terms():
    # beta = 1: ratio terms enter both summands
    cert = MDCertificate(
        p=2.0,
        c1=2.0,
        c2=1.0,
        c3=0.5,
        gamma=np.array([1.0, 0.5, 0.25]),
        tail_ratio=0.5,
        n_max=2,
    )
    sd = power_iteration(scalar_kernel(1.0))
    sd.beta = 1
    sd.alpha = np.array([0.5, 0.25, 0.125, 0.0625])
    m, n = 2, 4
    c0 = np.sqrt(2 * 0.5)
    ratio_prod = (n * m) / (n + m)
    ratio_n = n / (n + m)
    inner = c0 / 1.0 * cert.Gamma(0) * 1.0 + 1.0
    expected = (
        c0 * (2.0 * 1.0 + 1.0) * cert.Gamma(m)
        + (sd.alpha[n - 1] * ratio_prod * 2.0 + 1.0 * (1 - ratio_n)) * inner
    )
    assert theorem1_rhs(cert, sd, 1.0, 1.0, 1.0, 1.0, m, n) == pytest.approx(expected)


def test_proxy_gap_bound_matches_gamma_tail():
    law, k1, kp, sd, cert = certified_uniform_split()
    gap = proxy_gap_bound(cert, sd, 1.0, 1.0, 20)
    assert gap == pytest.approx(cert.c0 * cert.Gamma(20), rel=1e-12)


def test_fit_tail_ratio_geometric_exact():
    gamma = 0.7 ** np.arange(20)
    assert fit_tail_ratio(gamma) == pytest.approx(0.7, rel=1e-12)


def test_estimate_c1_with_growth():
    # kernel with row mass 1.2: theta = 1.2 so scaled powers stay at 1
    k = scalar_kernel(1.2)
    sd = power_iteration(k)
    assert estimate_c1(k, sd, 10) == pytest.approx(1.0)
