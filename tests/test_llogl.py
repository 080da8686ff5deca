import numpy as np
import pytest

from wbp import llogl
from wbp.cascades import ScaledUniformCascade, UniformSplitCascade, finite_cascade
from wbp.llogl import default_rho, hfk_partial_sums, liu_conditions
from wbp.population import advance_generation
from wbp.spectral import TypeGrid, build_mean_kernel
from wbp.streams import derive_stream

ONE_POINT = TypeGrid.finite(1)


def test_default_rho_formula_and_guard():
    # canonical base (theta1^p / theta2)^(1/(p-1))
    assert default_rho(1.0, 2.0 / 3.0, 2.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        default_rho(1.0, 4.0 / 3.0, 2.0)  # degenerate regime: no valid base


def test_liu_conditions_deterministic_half_half():
    reports = liu_conditions(finite_cascade([(0.5, 0.5)]), 2.0)
    nums = reports["p-moment-contraction"].numbers
    assert nums["scaled_p_moment"] == pytest.approx(0.5)
    assert nums["mass_p_moment"] == pytest.approx(1.0)
    # closed forms only: no standard-error fields
    assert set(nums) == {
        "mass_p_moment",
        "mass_loglog_moment",
        "p",
        "theta1",
        "scaled_p_moment",
        "scaled_log_moment",
    }
    assert reports["p-moment-contraction"].verdict == "holds"
    assert reports["mass-LlogL"].verdict == "holds"


def test_liu_conditions_uniform_split():
    reports = liu_conditions(UniformSplitCascade(independent=True), 2.0)
    assert reports["p-moment-contraction"].numbers["scaled_p_moment"] == pytest.approx(2 / 3)
    assert reports["p-moment-contraction"].verdict == "holds"


def test_liu_conditions_scaled_uniform_fails():
    reports = liu_conditions(ScaledUniformCascade(c=2.0), 2.0)
    assert reports["p-moment-contraction"].numbers["scaled_p_moment"] == pytest.approx(4 / 3)
    assert reports["p-moment-contraction"].verdict == "fails"
    assert reports["mass-LlogL"].verdict == "fails"
    # the L log L moment itself is finite
    assert np.isfinite(reports["mass-LlogL"].numbers["mass_loglog_moment"])


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_liu_conditions_scaled_uniform_fails_for_every_c(c, p):
    # the factor scaled by theta1 = c/2 is 2U whatever c: E((2U)^p) = 2^p/(p+1) > 1
    # and E(2U log 2U) = log 2 - 1/2 > 0, so W_n = prod 2U_i tends to 0; c = 0 kills the mass
    reports = liu_conditions(ScaledUniformCascade(c=c), p)
    assert [r.verdict for r in reports.values()] == ["fails", "fails"]
    if c > 0:
        nums = reports["mass-LlogL"].numbers
        assert nums["scaled_p_moment"] == pytest.approx(2.0**p / (p + 1.0))
        assert nums["scaled_log_moment"] == pytest.approx(np.log(2.0) - 0.5)


def test_liu_conditions_galton_watson_tree_holds():
    # two unit children with probability 0.6, none with 0.4: theta1 = 1.2 and
    # W = lim 1.2^-n Z_n is non-degenerate (Kesten-Stigum)
    reports = liu_conditions(finite_cascade(((1.0, 1.0), (0.0, 0.0)), (0.6, 0.4)), 2.0)
    assert [r.verdict for r in reports.values()] == ["holds", "holds"]
    nums = reports["mass-LlogL"].numbers
    assert nums["theta1"] == pytest.approx(1.2)
    assert nums["scaled_p_moment"] == pytest.approx(1.2 / 1.44)
    assert nums["scaled_log_moment"] == pytest.approx(-np.log(1.2))


def hfk(law, k, rho, theta1, p, n_max, **kw):
    # f = 1 on the one-point grid, with the law's exact kernels
    kernels = (build_mean_kernel(law, ONE_POINT, 1.0), build_mean_kernel(law, ONE_POINT, p))
    return hfk_partial_sums(law, ONE_POINT, np.ones(1), k, rho, theta1, p, n_max, *kernels, **kw)


@pytest.mark.parametrize("factors,k", [((0.5, 0.5), 1), ((0.25, 0.0, 0.75), 4)])
def test_hfk_deterministic_all_zero_holds(factors, k):
    # every tree's mass after k steps is exactly 1, its mean: each sample is 0
    law = finite_cascade([factors])
    rep = hfk(law, k, 2.0, 1.0, 2.0, 10, mc_budget=200, rng=derive_stream(4, 0))
    assert rep.verdict == "holds"
    for name in ("terms_first_moment", "terms_p_moment", "terms_first_moment_se", "terms_p_moment_se"):
        assert np.all(rep.numbers[name] == 0.0)
    assert rep.numbers["partial_sum_first"] == 0.0
    assert rep.numbers["partial_sum_p"] == 0.0


def test_hfk_runs_in_blocks_of_at_most_2_20_expected_particles(monkeypatch):
    # two children per particle and k = 11: one root's 12 generations hold
    # 2^12 - 1 particles, so 256 roots fill a block and 1 100 trajectories
    # take blocks of 256, 256, 256, 256 and 76 roots
    blocks = []

    def recording_advance(g, law, rng, cap):
        child = advance_generation(g, law, rng, cap=cap)
        if g.index == 0:
            blocks.append((g.size, g.size))
        blocks[-1] = (blocks[-1][0], blocks[-1][1] + child.size)
        return child

    monkeypatch.setattr(llogl, "advance_generation", recording_advance)
    law = finite_cascade([(0.5, 0.5)])
    rep = hfk(law, 11, 2.0, 1.0, 2.0, 6, mc_budget=1100, rng=derive_stream(4, 1))
    assert blocks == [(256, 256 * 4095)] * 4 + [(76, 76 * 4095)]
    assert 256 * 4095 <= 2**20 < 257 * 4095
    assert rep.numbers["partial_sum_p"] == 0.0


def test_hfk_block_size_survives_a_long_supercritical_horizon():
    # 2^k overflows a float long before k = 2000; the block is then one root
    law = finite_cascade([(0.5, 0.5)])
    assert llogl._block_roots(law, ONE_POINT, 2000) == 1
    assert llogl._block_roots(law, ONE_POINT, 0) == 2**20
    assert llogl._block_roots(finite_cascade([(1.0,)]), ONE_POINT, 3) == 2**18


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
        hfk(finite_cascade([(1.0,)]), 1, 0.9, 1.0, 2.0, 5, mc_budget=10, rng=derive_stream(0, 0))
