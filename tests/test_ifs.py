import numpy as np
import pytest

from wbp.cascades import DeterministicCascade, UniformSplitCascade
from wbp.harness import ExperimentConfig, run_experiment
from wbp.ifs import doob_transition, ifs_convergence_probe, ifs_weighted_law
from wbp.population import advance_generation, sample_progeny
from wbp.spectral import MeanKernel, TypeGrid, attach_alpha, build_mean_kernel, power_iteration
from wbp.streams import derive_stream


def halving_ifs(weights=None):
    return ifs_weighted_law(
        [(0.5, 0.0), (0.5, 0.5)], (0.5, 0.5), weights or UniformSplitCascade()
    )


def test_single_map_single_child():
    law = ifs_weighted_law([(0.5, 0.0)], (1.0,), DeterministicCascade((1.0,)))
    offspring = sample_progeny(law, 1.0, derive_stream(0, 0))
    assert offspring == [(1.0, 0.5)]


def test_sample_progeny_stream_matches_array_map_draw():
    # the scalar map draw consumes the same double and picks the same map
    # as the array draw it replaced
    law = ifs_weighted_law(
        [(0.5, 0.0), (0.25, 0.5), (0.3, 0.7)], (0.2, 0.3, 0.5), UniformSplitCascade()
    )

    def array_draw(x, rng):
        offspring, lost = law.weights.sample_progeny(0, rng)
        out = []
        for u, _ in offspring:
            z = int(law._draw_maps(1, rng)[0])
            out.append((u, float(law._a[z] * float(x) + law._b[z])))
        return out, lost

    fast, slow = derive_stream(9, 0), derive_stream(9, 0)
    xs = np.linspace(0.0, 1.0, 1000)
    assert [law.sample_progeny(x, fast) for x in xs] == [array_draw(x, slow) for x in xs]
    assert fast.random() == slow.random()

    # a uniform equal to a table entry picks the next map in both
    class Scripted:
        def __init__(self):
            self.values = iter([0.2, 0.2, 0.5, 0.5, np.nextafter(0.2, 0.0), 0.0] * 20)

        def random(self, size=None):
            u = next(self.values)
            return u if size is None else np.full(size, u)

    fast, slow = Scripted(), Scripted()
    assert [law.sample_progeny(0.5, fast) for _ in range(20)] == [
        array_draw(0.5, slow) for _ in range(20)
    ]


def test_map_validation():
    with pytest.raises(ValueError):
        ifs_weighted_law([(1.2, 0.0)], (1.0,), DeterministicCascade((1.0,)))
    with pytest.raises(ValueError):
        ifs_weighted_law([(0.5, 0.9)], (1.0,), DeterministicCascade((1.0,)))  # leaves [0,1]


def test_progeny_functionals_uniform_split():
    law = halving_ifs()
    assert law.J() == 0.0  # factors never exceed 1
    assert law.H(2.0) == pytest.approx(1.0)  # single-draw split: mass exactly 1
    assert law.L(2.0) == pytest.approx(2.0 / 3.0)
    assert law.L(1.0) == pytest.approx(1.0)


def test_moment_row_splits_between_map_images():
    law = halving_ifs()
    grid = TypeGrid.interval(0.0, 1.0, 2.0**-4)
    row = build_mean_kernel(law, grid, 1.0).dense()[3]
    assert row.sum() == pytest.approx(1.0)
    assert np.count_nonzero(row) == 2
    cells = grid.locate(np.array([grid.points[3] / 2, grid.points[3] / 2 + 0.5]))
    assert row[cells[0]] == pytest.approx(0.5)
    assert row[cells[1]] == pytest.approx(0.5)


def test_three_map_row_weights_each_map_by_its_probability():
    # equal thirds: the differenced sampling table weighted the last map 0.33333333333333337
    law = ifs_weighted_law(
        [(0.25, 0.0), (0.25, 0.375), (0.25, 0.75)], (1 / 3, 1 / 3, 1 / 3), UniformSplitCascade()
    )
    grid = TypeGrid.interval(0.0, 1.0, 2.0**-4)
    x = grid.points[8]
    cells = grid.locate([0.25 * x, 0.25 * x + 0.375, 0.25 * x + 0.75])
    for order in (1.0, 2.0):
        row = build_mean_kernel(law, grid, order).dense()[8]
        mass = law.weights.factor_moment(order)
        assert np.unique(cells).size == 3 and np.count_nonzero(row) == 3
        for cell in cells:
            assert row[cell] == mass * (1 / 3)


def test_map_probs_off_one_beyond_rounding_are_refused():
    # the sampler's table ends at 1.0, so such a last map would be drawn with 0.5
    # while the mean kernel gives it 0.49999999
    with pytest.raises(ValueError, match="map_probs"):
        ifs_weighted_law([(0.5, 0.0), (0.5, 0.5)], (0.5, 0.49999999), UniformSplitCascade())
    # a sum off by rounding only is kept: ten maps of 0.1 add up to 0.9999999999999999
    law = ifs_weighted_law([(0.5, 0.05 * i) for i in range(10)], (0.1,) * 10, UniformSplitCascade())
    assert law._cum[-1] == 1.0


def test_pathwise_contraction_under_shared_randomness():
    # identical streams from two starts: every particle gap contracts geometrically
    law = halving_ifs()
    x, y = 0.125, 0.875
    for n in range(1, 8):
        ga = law.root_generation(x)
        gb = law.root_generation(y)
        rng_a = derive_stream(11, 0)
        rng_b = derive_stream(11, 0)
        for _ in range(n):
            ga = advance_generation(ga, law, rng_a)
            gb = advance_generation(gb, law, rng_b)
        gaps = np.abs(ga.types - gb.types)
        assert np.all(gaps <= law.max_contraction**n * abs(x - y) + 1e-12)


def test_grid_kernel_row_masses_are_offspring_mass():
    law = halving_ifs()
    grid = TypeGrid.interval(0.0, 1.0, 2.0**-6)
    k = build_mean_kernel(law, grid, 1.0)
    assert np.allclose(k.matrix.sum(axis=1), 1.0)


def test_doob_conservative_kernel():
    # constant row mass c: profile is identically 1 and theta0 * c = c
    m = np.array([[0.3, 0.4], [0.5, 0.2]])  # rows sum to 0.7
    k = MeanKernel.from_dense(m, TypeGrid.finite(2))
    d = doob_transition(k, power_iteration(k).theta)
    assert np.allclose(d.profile, 1.0)
    assert d.sup_mass == pytest.approx(0.7)
    assert d.theta1_product == pytest.approx(d.theta1_direct, abs=1e-10)


def test_doob_two_point_nonconservative_identity():
    # acceptance-grade identity on a kernel with unequal row masses
    m = np.array([[0.3, 0.4], [0.5, 0.4]])
    k = MeanKernel.from_dense(m, TypeGrid.finite(2))
    d = doob_transition(k, power_iteration(k, tol=1e-13).theta, tol=1e-13)
    assert d.profile[1] == 1.0
    assert d.profile[0] == pytest.approx(0.7 / 0.9)
    assert d.identity_residual <= 1e-8
    # oracle: both sides against the dense eigensolver
    lam = np.max(np.abs(np.linalg.eigvals(m)))
    assert d.theta1_direct == pytest.approx(lam, abs=1e-9)
    assert d.theta1_product == pytest.approx(lam, abs=1e-9)


def test_doob_uniform_split_mass_one():
    law = halving_ifs()
    grid = TypeGrid.interval(0.0, 1.0, 2.0**-5)
    k = build_mean_kernel(law, grid, 1.0)
    d = doob_transition(k, power_iteration(k).theta)
    assert np.allclose(d.profile, 1.0)
    assert d.sup_mass == pytest.approx(1.0)
    assert np.allclose(d.chain.dense(), k.dense())


def test_doob_zero_mass_rejected():
    k = MeanKernel.from_dense(np.zeros((2, 2)), TypeGrid.finite(2))
    with pytest.raises(ValueError):
        doob_transition(k, 0.0)


def position_spectral(law, h, n_max):
    """Eigendata of the law's mean kernel on the h-grid, with alpha_n of f(x) = x."""
    grid = TypeGrid.interval(0.0, 1.0, h)
    k1 = build_mean_kernel(law, grid, 1.0)
    return attach_alpha(k1, grid.points, power_iteration(k1), np.ones(grid.size), n_max)


def test_single_map_alpha_collapses_in_one_step():
    # one map with slope 0: all mass jumps to a point, alpha_n = 0 for n >= 1
    law = ifs_weighted_law([(0.0, 0.25)], (1.0,), UniformSplitCascade())
    sd = position_spectral(law, 2.0**-5, 10)
    probe = ifs_convergence_probe(law, sd)
    assert sd.alpha[1] <= 1e-14
    assert probe.verdict == "inconclusive"  # nothing to fit a rate on


def test_convergence_probe_halving_maps():
    law = halving_ifs()
    sd = position_spectral(law, 2.0**-7, 16)
    probe = ifs_convergence_probe(law, sd)
    assert probe.contraction_ok
    assert probe.slope <= np.log(0.5) + 0.1
    assert probe.gamma_bar == pytest.approx(2.0 / 3.0)
    assert probe.gamma_bar_ok
    assert sd.theta == pytest.approx(1.0, abs=1e-9)
    # stationary law of the halving chain is uniform: nu(f) ~ 1/2 for f(x) = x
    grid = TypeGrid.interval(0.0, 1.0, 2.0**-7)
    assert float(sd.nu @ grid.points) == pytest.approx(0.5, abs=0.01)
    # the certificate of the same model, as the ifs pipeline assembles it
    cfg = ExperimentConfig.from_dict(
        {
            "model": {"kind": "ifs", "maps": [[0.5, 0.0], [0.5, 0.5]], "h": 2.0**-7},
            "horizons": {"n_max": 16},
            "seed": 21,
            "dispersion_budget": 300,
        }
    )
    results = run_experiment(cfg, "ifs").results
    assert results["verdict"] == probe.verdict and results["theta"] == sd.theta
    assert results["c0"] > 0
    assert sorted(results["rhs_samples"]) == ["10,10", "5,5"]
    for rhs in results["rhs_samples"].values():
        assert rhs > 0


def test_probe_flags_wrong_contraction_claim():
    law = halving_ifs()
    probe = ifs_convergence_probe(law, position_spectral(law, 2.0**-7, 16), slack=-0.8)
    assert not probe.contraction_ok
    assert probe.verdict == "fails"
