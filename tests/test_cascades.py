import numpy as np
import pytest
from scipy import integrate as sci_integrate

from wbp.cascades import (
    DeterministicCascade,
    MixtureCascade,
    ScaledUniformCascade,
    UniformSplitCascade,
    cascade_martingale_mass,
)
from wbp.population import advance_generation, sample_progeny, simulate_trajectory
from wbp.streams import derive_stream


def test_deterministic_binary_progeny():
    law = DeterministicCascade((0.5, 0.5))
    offspring = sample_progeny(law, 0, derive_stream(0, 0))
    assert offspring == [(0.5, 0), (0.5, 0)]


def test_identity_progeny():
    law = DeterministicCascade((1.0,))
    assert sample_progeny(law, 0, derive_stream(0, 0)) == [(1.0, 0)]


def test_uniform_split_mean_mass():
    # empirical mean of the offspring mass within 4 SE of 1 over 1e5 draws
    law = UniformSplitCascade(independent=True)
    rng = derive_stream(3, 0)
    draws = 100_000
    batch = law.sample_generation(np.ones(draws), np.zeros(draws, dtype=np.int64), rng)
    masses = batch.weights.reshape(draws, 2).sum(axis=1)
    se = masses.std(ddof=1) / np.sqrt(draws)
    assert abs(masses.mean() - 1.0) <= 4 * se


def test_uniform_split_single_mass_conserved_pathwise():
    law = UniformSplitCascade(independent=False)
    traj = simulate_trajectory(law, law.root_generation(), 12, derive_stream(5, 0))
    masses = cascade_martingale_mass(traj)
    assert np.allclose(masses, 1.0, atol=1e-12)


def test_uniform_split_one_step_mass_exact():
    law = UniformSplitCascade(independent=False)
    g = advance_generation(law.root_generation(), law, derive_stream(0, 1))
    assert g.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_factor_moments_closed_forms():
    single = UniformSplitCascade(independent=False)
    indep = UniformSplitCascade(independent=True)
    for law in (single, indep):
        assert law.factor_moment(1.0) == pytest.approx(1.0)
        assert law.factor_moment(2.0) == pytest.approx(2.0 / 3.0)
    scaled = ScaledUniformCascade(c=2.0)
    assert scaled.factor_moment(1.0) == pytest.approx(1.0)
    assert scaled.factor_moment(2.0) == pytest.approx(4.0 / 3.0)
    det = DeterministicCascade((0.5, 0.5))
    assert det.factor_moment(2.0) == pytest.approx(0.5)


def test_total_mass_power_against_quadrature():
    # E((1 + U - U')^p) for independent uniforms, via 2-D quadrature
    law = UniformSplitCascade(independent=True)
    for p in (1.3, 2.0):
        exact, _ = sci_integrate.dblquad(
            lambda v, u: (u + 1.0 - v) ** p, 0, 1, lambda u: 0, lambda u: 1
        )
        assert law.total_mass_power(p) == pytest.approx(exact, rel=1e-9)
    assert law.total_mass_power(2.0) == pytest.approx(7.0 / 6.0)


def test_total_mass_loglog_against_quadrature():
    law = UniformSplitCascade(independent=True)
    exact, _ = sci_integrate.dblquad(
        lambda v, u: max(u + 1.0 - v, 1e-300) * max(np.log(max(u + 1.0 - v, 1e-300)), 0.0),
        0,
        1,
        lambda u: 0,
        lambda u: 1,
    )
    assert law.total_mass_loglog() == pytest.approx(exact, rel=1e-6)

    scaled = ScaledUniformCascade(c=2.0)
    exact_s, _ = sci_integrate.quad(
        lambda u: 2 * u * max(np.log(2 * u), 0.0) if u > 0 else 0.0, 0, 1
    )
    assert scaled.total_mass_loglog() == pytest.approx(exact_s, rel=1e-9)
    assert scaled.total_mass_loglog() == pytest.approx(np.log(2.0) - 3.0 / 8.0)


def test_offspring_xlogx_closed_forms():
    assert UniformSplitCascade().offspring_xlogx() == pytest.approx(-0.5)
    # E(2U log 2U) = log 2 - 1/2 > 0: the degenerate regime marker
    scaled = ScaledUniformCascade(c=2.0)
    assert scaled.offspring_xlogx() == pytest.approx(np.log(2.0) - 0.5)
    assert scaled.offspring_xlogx() > 0


def test_total_mass_var():
    assert UniformSplitCascade().total_mass_var() == 0.0
    assert UniformSplitCascade(independent=True).total_mass_var() == pytest.approx(1.0 / 6.0)
    assert ScaledUniformCascade(2.0).total_mass_var() == pytest.approx(1.0 / 3.0)


def test_scaled_uniform_single_effective_child():
    law = ScaledUniformCascade(c=2.0)
    traj = simulate_trajectory(law, law.root_generation(), 20, derive_stream(0, 2))
    assert all(g.size == 1 for g in traj)


def test_scaled_uniform_martingale_expectation():
    # E G_n(1) = 1 at every n, within 4 SE over 1e4 replicates
    law = ScaledUniformCascade(c=2.0)
    reps, horizon = 10_000, 8
    final = np.empty(reps)
    for r in range(reps):
        traj = simulate_trajectory(law, law.root_generation(), horizon, derive_stream(17, r))
        final[r] = traj[-1].total_mass()
    se = final.std(ddof=1) / np.sqrt(reps)
    assert abs(final.mean() - 1.0) <= 4 * se


def test_mixture_cascade_moments_and_sampling():
    law = MixtureCascade(atoms=((0.5, 0.5), (1.5,)), probs=(0.5, 0.5))
    assert law.mean_total_mass() == pytest.approx(1.25)
    assert law.factor_moment(2.0) == pytest.approx(0.5 * 0.5 + 0.5 * 2.25)
    rng = derive_stream(0, 3)
    batch = law.sample_generation(np.ones(4000), np.zeros(4000, dtype=np.int64), rng)
    per_parent = batch.weights.reshape(4000, -1).sum(axis=1)
    se = per_parent.std(ddof=1) / np.sqrt(4000)
    assert abs(per_parent.mean() - 1.25) <= 4 * se


def test_vectorized_matches_per_particle_sampling():
    # same stream, same arithmetic: batch and one-by-one paths agree bitwise
    for law in (
        UniformSplitCascade(independent=False),
        UniformSplitCascade(independent=True),
        ScaledUniformCascade(c=2.0),
        MixtureCascade(atoms=((0.25, 0.75), (1.0,)), probs=(0.25, 0.75)),
    ):
        weights = derive_stream(9, 0).random(64) + 0.5
        types = np.zeros(64, dtype=np.int64)
        batch = law.sample_generation(weights.copy(), types, derive_stream(8, 1))
        rng = derive_stream(8, 1)
        manual = []
        for i in range(64):
            for u, _ in law.sample_progeny(0, rng)[0]:
                if True:
                    manual.append(weights[i] * u)
        kept = batch.weights
        manual = np.array(manual)
        # padding zeros are dropped on advance; compare nonzero entries in order
        assert np.array_equal(kept[kept > 0], manual[manual > 0])


def test_moment_row_one_point_grid():
    from wbp.spectral import TypeGrid

    grid = TypeGrid.finite(1)
    law = UniformSplitCascade(independent=True)
    cols, vals = law.moment_rows(grid, 2.0)
    assert cols.tolist() == [[0]]
    assert vals.tolist() == [[pytest.approx(2.0 / 3.0)]]
    with pytest.raises(ValueError):
        law.moment_rows(TypeGrid.finite(2), 1.0)
