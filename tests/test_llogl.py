import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbp.cascades import DeterministicCascade, ScaledUniformCascade, UniformSplitCascade
from wbp.llogl import (
    centered_functional,
    default_rho,
    exp_1,
    hfk_partial_sums,
    liu_conditions,
    log_a,
)
from wbp.spectral import TypeGrid, build_mean_kernel
from wbp.streams import derive_stream

E = math.e
ONE_POINT = TypeGrid.finite(1)


def test_log_a_reference_values():
    assert log_a(1.0, E) == pytest.approx(1.0)  # upper branch: log(e)^1
    assert log_a(1.0, 1.0) == pytest.approx(1.0 / E)  # lower branch: (1/e) * 1
    for a in (1.0, 1.5, 2.0, 3.0):
        # continuity at the breakpoint: both branches give a^a
        lower = (a / E) ** a * (E**a)
        upper = math.log(E**a) ** a
        assert lower == pytest.approx(upper)
        assert log_a(a, E**a) == pytest.approx(a**a)


def test_log_a_vectorized_and_nonnegative_domain():
    x = np.array([0.0, 1.0, E, 10.0, 100.0])
    out = log_a(2.0, x)
    assert out.shape == x.shape
    with pytest.raises(ValueError):
        log_a(0.5, 1.0)
    with pytest.raises(ValueError):
        log_a(1.0, -1.0)


@settings(max_examples=80, deadline=None)
@given(a=st.floats(1.0, 4.0), x=st.floats(0.0, 1e6), y=st.floats(0.0, 1e6))
def test_log_a_monotone(a, x, y):
    lo, hi = sorted((x, y))
    assert log_a(a, lo) <= log_a(a, hi) + 1e-12


def test_x_log_a_midpoint_convexity():
    # convexity of x -> x log_a(a, x) probed on a grid straddling the kink
    for a in (1.0, 2.0):
        xs = np.linspace(0.0, 3.0 * E**a, 301)
        f = xs * log_a(a, xs)
        mid = 0.5 * (f[:-2] + f[2:])
        assert np.all(mid >= f[1:-1] - 1e-9)


def test_exp_1_reference_values():
    assert exp_1(E) == pytest.approx(E)  # both branches agree at e
    assert exp_1(0.0) == 1.0
    assert exp_1(10.0) == 10.0
    assert exp_1(np.array([0.0, E, 5.0])).tolist() == pytest.approx([1.0, E, 5.0])
    with pytest.raises(ValueError):
        exp_1(-0.1)


def test_default_rho_formula_and_guard():
    # canonical base (theta1^p / theta2)^(1/(p-1))
    assert default_rho(1.0, 2.0 / 3.0, 2.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        default_rho(1.0, 4.0 / 3.0, 2.0)  # degenerate regime: no valid base


def test_centered_functional_deterministic_zero():
    law = DeterministicCascade((0.5, 0.5))
    k = build_mean_kernel(law, ONE_POINT, 1.0)
    for _ in range(5):
        assert centered_functional(law, 0, np.ones(1), 2, derive_stream(0, 0), k) == 0.0


def test_centered_functional_uniform_split_exact_zero():
    # single-draw split: offspring mass is exactly 1, so X_1 = 0
    law = UniformSplitCascade(independent=False)
    k = build_mean_kernel(law, ONE_POINT, 1.0)
    rng = derive_stream(1, 0)
    for _ in range(10):
        assert centered_functional(law, 0, np.ones(1), 1, rng, k) == pytest.approx(0.0, abs=1e-15)


def test_centered_functional_scaled_uniform_variance():
    # X_1 = 2U - 1: variance 1/3, checked at 4 SE over many draws
    law = ScaledUniformCascade(c=2.0)
    k = build_mean_kernel(law, ONE_POINT, 1.0)
    rng = derive_stream(2, 0)
    n = 20_000
    samples = np.array([centered_functional(law, 0, np.ones(1), 1, rng, k) for _ in range(n)])
    assert np.all(np.abs(samples) <= 1.0 + 1e-12)
    var = samples.var(ddof=1)
    se = np.sqrt(2.0 / (n - 1)) * var  # SE of a variance estimate, normal approx
    assert abs(var - 1.0 / 3.0) <= 4 * max(se, 2e-3)


def test_liu_conditions_deterministic_half_half():
    reports = liu_conditions(DeterministicCascade((0.5, 0.5)), 2.0)
    nums = reports["p-moment-contraction"].numbers
    assert nums["offspring_p_moment"] == pytest.approx(0.5)
    assert nums["mass_p_moment"] == pytest.approx(1.0)
    assert reports["p-moment-contraction"].verdict == "holds"
    assert reports["mass-LlogL"].verdict == "holds"


def test_liu_conditions_uniform_split():
    reports = liu_conditions(UniformSplitCascade(independent=True), 2.0)
    assert reports["p-moment-contraction"].numbers["offspring_p_moment"] == pytest.approx(2 / 3)
    assert reports["p-moment-contraction"].verdict == "holds"


def test_liu_conditions_scaled_uniform_fails():
    reports = liu_conditions(ScaledUniformCascade(c=2.0), 2.0)
    assert reports["p-moment-contraction"].numbers["offspring_p_moment"] == pytest.approx(4 / 3)
    assert reports["p-moment-contraction"].verdict == "fails"
    assert reports["mass-LlogL"].verdict == "fails"
    # the L log L moment itself is finite
    assert np.isfinite(reports["mass-LlogL"].numbers["mass_loglog_moment"])


def test_liu_conditions_monte_carlo_path():
    from wbp.population import ReproductionLaw

    class OpaqueSplit(ReproductionLaw):
        def sample_progeny(self, x, rng):
            u = rng.random()
            return [(u, 0), (1.0 - u, 0)], 0.0

    reports = liu_conditions(OpaqueSplit(), 2.0, mc_budget=20_000, rng=derive_stream(3, 0))
    nums = reports["p-moment-contraction"].numbers
    assert abs(nums["offspring_p_moment"] - 2 / 3) <= 4 * nums["offspring_p_moment_se"]
    assert reports["p-moment-contraction"].verdict == "holds"


def hfk(law, k, rho, theta1, p, n_max, **kw):
    # f = 1 on the one-point grid, with the law's exact kernels
    kernels = (build_mean_kernel(law, ONE_POINT, 1.0), build_mean_kernel(law, ONE_POINT, p))
    return hfk_partial_sums(law, ONE_POINT, np.ones(1), k, rho, theta1, p, n_max, *kernels, **kw)


def test_hfk_deterministic_all_zero_holds():
    law = DeterministicCascade((0.5, 0.5))
    rep = hfk(law, 1, 2.0, 1.0, 2.0, 10, mc_budget=200, rng=derive_stream(4, 0))
    assert rep.verdict == "holds"
    assert rep.numbers["partial_sum_first"] == 0.0
    assert rep.numbers["partial_sum_p"] == 0.0


def test_hfk_uniform_split_exact_null_holds():
    law = UniformSplitCascade(independent=False)
    rep = hfk(law, 1, 2.0, 1.0, 2.0, 10, mc_budget=200, rng=derive_stream(5, 0))
    assert rep.verdict == "holds"
    assert rep.numbers["partial_sum_p"] <= 1e-12


def test_hfk_scaled_uniform_diverges():
    # terms grow like (4/3)^n * E(2U-1)^2: geometric divergence
    law = ScaledUniformCascade(c=2.0)
    rep = hfk(law, 1, 2.0, 1.0, 2.0, 12, mc_budget=1500, rng=derive_stream(6, 0))
    assert rep.verdict == "fails"
    terms1 = rep.numbers["terms_first_moment"]
    assert np.allclose(terms1, 0.0, atol=1e-14)  # |X| <= 1 < rho^n for n >= 1
    terms2 = rep.numbers["terms_p_moment"]
    # growth factor 4/3 per step, value near (4/3)^n / 3 (oracle: geometric series test)
    ratios = terms2[1:] / terms2[:-1]
    assert np.allclose(ratios, 4.0 / 3.0, rtol=1e-9)
    assert abs(terms2[0] - (4.0 / 3.0) / 3.0) <= 6 * rep.numbers["terms_p_moment_se"][0]


def test_hfk_rho_must_exceed_one():
    with pytest.raises(ValueError):
        hfk(DeterministicCascade((1.0,)), 1, 0.9, 1.0, 2.0, 5, mc_budget=10, rng=derive_stream(0, 0))
