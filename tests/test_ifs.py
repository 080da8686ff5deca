import json
import tracemalloc

import numpy as np
import pytest

from dense_kernels import dense, from_dense
from wbp.cascades import DeterministicCascade, ScaledUniformCascade, UniformSplitCascade
from wbp.cli import main
from wbp.harness import ExperimentConfig, run_experiment
from wbp.ifs import _BLOCK, IfsLaw, doob_transition, ifs_convergence_probe
from wbp.population import advance_generation, count_thresholds, cumulative_probs
from wbp.spectral import TypeGrid, attach_alpha, build_mean_kernel, power_iteration
from wbp.streams import derive_stream


def halving_ifs(weights=None):
    return IfsLaw([(0.5, 0.0), (0.5, 0.5)], (0.5, 0.5), weights or UniformSplitCascade())


def test_single_map_single_child():
    law = IfsLaw([(0.5, 0.0)], (1.0,), DeterministicCascade((1.0,)))
    assert law.sample_progeny(1.0, derive_stream(0, 0)) == [(1.0, 0.5)]


def test_sample_progeny_stream_matches_array_map_draw():
    # the scalar map draw consumes the same double and picks the same map
    # as the array draw it replaced
    law = IfsLaw(
        [(0.5, 0.0), (0.25, 0.5), (0.3, 0.7)], (0.2, 0.3, 0.5), UniformSplitCascade()
    )

    def array_draw(x, rng):
        offspring = law.weights.sample_progeny(0, rng)
        out = []
        for u, _ in offspring:
            z = int(count_thresholds(rng.random(1), law._thresholds)[0])
            out.append((u, float(law._a[z] * float(x) + law._b[z])))
        return out

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


class FixedUniforms:
    """Stand-in generator whose one batch of uniforms is chosen by the test."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("n_maps", [1, 2, 5, 300])
def test_batch_map_draw_equals_searchsorted(n_maps):
    # the batch path counts the table entries below each uniform; at 300 maps
    # a count held in a narrow integer would wrap
    rng = np.random.default_rng(n_maps)
    probs = rng.random(n_maps) * (rng.random(n_maps) < 0.8)
    probs[-1] += 0.1
    probs /= probs.sum()
    # map k sends 0 to b[k], so a child's type names its map
    b = np.arange(n_maps) / (2 * n_maps)
    law = IfsLaw([(0.5, bk) for bk in b], probs, DeterministicCascade((1.0,)))
    cum = cumulative_probs(probs)
    # fresh uniforms, every table entry below 1 exactly, and both ends of [0, 1)
    u = np.concatenate([rng.random(4000), cum[cum < 1.0], [0.0, np.nextafter(1.0, 0.0)]])
    batch = law.sample_generation(np.ones(u.size), np.zeros(u.size), FixedUniforms(u))
    expected = np.searchsorted(cum, u, side="right")
    assert expected.max() == n_maps - 1
    assert np.array_equal(batch.types, b[expected])


def _one_pass_generation(law, weights, types, rng):
    # every weight, then every map uniform in one draw, then the gathers over all children
    child_w, brood = law.weights.sample_weights(weights, rng)
    zeta = count_thresholds(rng.random(child_w.size), law._thresholds)
    return child_w, np.repeat(types, brood) * law._a.take(zeta) + law._b.take(zeta)


@pytest.mark.parametrize("children", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize(
    "maps,probs",
    [
        ([(0.5, 0.25)], (1.0,)),
        ([(0.5, 0.0), (0.5, 0.5)], (0.5, 0.5)),
        # the middle map is never drawn
        ([(0.3, 0.0), (0.2, 0.4), (0.25, 0.75)], (0.3, 0.0, 0.7)),
    ],
)
@pytest.mark.parametrize("weights,brood", [(ScaledUniformCascade(), 1), (UniformSplitCascade(independent=True), 2)])
def test_blocked_map_draw_equals_one_pass(children, maps, probs, weights, brood):
    # the blocks draw the map uniforms of one rng.random(n) and leave the stream where it would
    law = IfsLaw(maps, probs, weights)
    parents = -(-children // brood)
    x = derive_stream(5, children).random(parents)
    w = np.linspace(0.5, 2.0, parents)
    batch_rng, ref_rng = derive_stream(3, children), derive_stream(3, children)
    batch = law.sample_generation(w, x, batch_rng)
    ref_w, ref_x = _one_pass_generation(law, w, x, ref_rng)
    assert batch.weights.tobytes() == ref_w.tobytes()
    assert batch.types.dtype == np.float64 and batch.types.tobytes() == ref_x.tobytes()
    assert batch.brood == brood and batch.types.size == brood * parents
    assert batch_rng.random() == ref_rng.random()
    if len(maps) == 3:  # the middle map's image [0.4, 0.6) stays empty
        assert not np.any((batch.types >= 0.4) & (batch.types < 0.6))


def test_one_step_holds_parents_children_and_at_most_two_blocks():
    # numpy reports its arrays to tracemalloc; the one-pass draw held the cascade's
    # types, a full map index and two gathered coefficient arrays beside the children
    law = halving_ifs(UniformSplitCascade(independent=True))
    tracemalloc.start()
    try:
        weights, types = np.ones(2**17), np.full(2**17, 0.5)
        batch = law.sample_generation(weights, types, derive_stream(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parents = weights.nbytes + types.nbytes
    children = batch.weights.nbytes + batch.types.nbytes
    block = _BLOCK * 16  # a block of children, a weight and a position each
    assert children == 2**18 * 16
    assert peak < parents + children + 2 * block


def test_map_validation():
    with pytest.raises(ValueError, match=r"map \(1.2, 0.0\) is not a strict contraction"):
        IfsLaw([(1.2, 0.0)], (1.0,), DeterministicCascade((1.0,)))
    with pytest.raises(ValueError, match=r"map \(0.5, 0.9\) leaves"):
        IfsLaw([(0.5, 0.9)], (1.0,), DeterministicCascade((1.0,)))


@pytest.mark.parametrize(
    "bad,named",
    [
        # [NaN, 0] passes a check of the images b and a + b alone, as min(0.0, nan) is 0.0
        ([float("nan"), 0.0], "(nan, 0.0)"),
        ([0.25, float("inf")], "(0.25, inf)"),
        ([0.5, 0.0, 0.25], "(0.5, 0.0, 0.25)"),
        ([0.5], "(0.5,)"),
    ],
)
def test_map_that_is_not_a_pair_of_finite_numbers_exits_2_naming_it(tmp_path, capsys, bad, named):
    config = tmp_path / "config.json"
    model = {"kind": "ifs", "maps": [[0.5, 0.0], bad]}
    config.write_text(json.dumps({"model": model, "horizons": {"n_max": 2}}))
    assert main(["spectral", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"map {named} is not a pair (a, b) of finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_progeny_functionals_uniform_split():
    law = halving_ifs()
    # the offspring moments the dispersion ratio of ifs_convergence_probe reads
    assert law.weights.factor_moment(2.0) == pytest.approx(2.0 / 3.0)
    assert law.weights.factor_moment(1.0) == pytest.approx(1.0)


def test_moment_row_splits_between_map_images():
    law = halving_ifs()
    grid = TypeGrid.interval(0.0, 1.0, 2.0**-4)
    row = dense(build_mean_kernel(law, grid, 1.0))[3]
    assert row.sum() == pytest.approx(1.0)
    assert np.count_nonzero(row) == 2
    cells = grid.locate(np.array([grid.points[3] / 2, grid.points[3] / 2 + 0.5]))
    assert row[cells[0]] == pytest.approx(0.5)
    assert row[cells[1]] == pytest.approx(0.5)


def test_three_map_row_weights_each_map_by_its_probability():
    # equal thirds: the differenced sampling table weighted the last map 0.33333333333333337
    law = IfsLaw(
        [(0.25, 0.0), (0.25, 0.375), (0.25, 0.75)], (1 / 3, 1 / 3, 1 / 3), UniformSplitCascade()
    )
    grid = TypeGrid.interval(0.0, 1.0, 2.0**-4)
    x = grid.points[8]
    cells = grid.locate([0.25 * x, 0.25 * x + 0.375, 0.25 * x + 0.75])
    for order in (1.0, 2.0):
        row = dense(build_mean_kernel(law, grid, order))[8]
        mass = law.weights.factor_moment(order)
        assert np.unique(cells).size == 3 and np.count_nonzero(row) == 3
        for cell in cells:
            assert row[cell] == mass * (1 / 3)


def test_map_probs_off_one_beyond_rounding_are_refused():
    # the sampler's table ends at 1.0, so such a last map would be drawn with 0.5
    # while the mean kernel gives it 0.49999999
    with pytest.raises(ValueError, match="map_probs"):
        IfsLaw([(0.5, 0.0), (0.5, 0.5)], (0.5, 0.49999999), UniformSplitCascade())
    # a sum off by rounding only is kept: ten maps of 0.1 add up to 0.9999999999999999
    IfsLaw([(0.5, 0.05 * i) for i in range(10)], (0.1,) * 10, UniformSplitCascade())
    assert cumulative_probs((0.1,) * 10, "map_probs")[-1] == 1.0


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
    k = from_dense(m, TypeGrid.finite(2))
    d = doob_transition(k, power_iteration(k).theta)
    assert np.allclose(d.profile, 1.0)
    assert d.sup_mass == pytest.approx(0.7)
    assert d.theta1_product == pytest.approx(d.theta1_direct, abs=1e-10)


def test_doob_two_point_nonconservative_identity():
    # acceptance-grade identity on a kernel with unequal row masses
    m = np.array([[0.3, 0.4], [0.5, 0.4]])
    k = from_dense(m, TypeGrid.finite(2))
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
    assert np.allclose(dense(d.chain), dense(k))


def test_doob_zero_mass_rejected():
    k = from_dense(np.zeros((2, 2)), TypeGrid.finite(2))
    with pytest.raises(ValueError):
        doob_transition(k, 0.0)


def position_spectral(law, h, n_max):
    """Eigendata of the law's mean kernel on the h-grid, with alpha_n of f(x) = x."""
    grid = TypeGrid.interval(0.0, 1.0, h)
    k1 = build_mean_kernel(law, grid, 1.0)
    return attach_alpha(k1, grid.points, power_iteration(k1), n_max)


def test_single_map_alpha_collapses_in_one_step():
    # one map with slope 0: all mass jumps to a point, alpha_n = 0 for n >= 1
    law = IfsLaw([(0.0, 0.25)], (1.0,), UniformSplitCascade())
    sd = position_spectral(law, 2.0**-5, 10)
    probe = ifs_convergence_probe(law, sd)
    assert sd.alpha[1] <= 1e-14
    assert probe.verdict == "inconclusive"  # nothing to fit a rate on


def test_convergence_probe_halving_maps():
    law = halving_ifs()
    sd = position_spectral(law, 2.0**-7, 16)
    probe = ifs_convergence_probe(law, sd)
    assert probe.verdict == "holds"
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
    run = run_experiment(cfg, "ifs")
    results = run.results
    assert run.verdicts == [probe.verdict] and results["theta"] == sd.theta
    assert results["c0"] > 0
    assert sorted(results["rhs_samples"]) == ["10,10", "5,5"]
    for rhs in results["rhs_samples"].values():
        assert rhs > 0


def test_probe_flags_wrong_contraction_claim():
    law = halving_ifs()
    probe = ifs_convergence_probe(law, position_spectral(law, 2.0**-7, 16), slack=-0.8)
    assert probe.verdict == "fails"
