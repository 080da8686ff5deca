import numpy as np
import pytest
from scipy import integrate as sci_integrate

from wbp.cascades import MomentOverflowError, ScaledUniformCascade, UniformSplitCascade, finite_cascade
from wbp.population import advance_generation, simulate_trajectory
from wbp.streams import derive_stream


def test_deterministic_binary_progeny():
    law = finite_cascade([(0.5, 0.5)])
    assert law.sample_progeny(0, derive_stream(0, 0)) == [(0.5, 0), (0.5, 0)]


def test_identity_progeny():
    law = finite_cascade([(1.0,)])
    assert law.sample_progeny(0, derive_stream(0, 0)) == [(1.0, 0)]


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
    masses = np.array([g.total_mass() for g in traj])
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
    det = finite_cascade([(0.5, 0.5)])
    assert det.factor_moment(2.0) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "law",
    [
        UniformSplitCascade(independent=False),
        UniformSplitCascade(independent=True),
        ScaledUniformCascade(c=0.5),
        ScaledUniformCascade(c=3.0),
        finite_cascade([(0.25, 0.0, 0.75)]),
        finite_cascade(((0.6, 0.6), (0.8, 0.0)), (0.5, 0.5)),
    ],
)
def test_factor_log_moment_is_the_derivative_of_factor_moment_at_one(law):
    h = 1e-5
    slope = (law.factor_moment(1.0 + h) - law.factor_moment(1.0 - h)) / (2.0 * h)
    assert law.factor_log_moment() == pytest.approx(slope, rel=1e-8, abs=1e-10)


def test_factor_log_moment_closed_forms():
    assert UniformSplitCascade().factor_log_moment() == -0.5
    assert ScaledUniformCascade(c=2.0).factor_log_moment() == pytest.approx(np.log(2.0) - 0.5)
    assert ScaledUniformCascade(c=0.0).factor_log_moment() == 0.0
    assert finite_cascade([(0.5, 0.5)]).factor_log_moment() == pytest.approx(-np.log(2.0))


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
    law = finite_cascade(atoms=((0.5, 0.5), (1.5,)), probs=(0.5, 0.5))
    assert law.mean_total_mass() == pytest.approx(1.25)
    assert law.factor_moment(2.0) == pytest.approx(0.5 * 0.5 + 0.5 * 2.25)
    rng = derive_stream(0, 3)
    batch = law.sample_generation(np.ones(4000), np.zeros(4000, dtype=np.int64), rng)
    per_parent = batch.weights.reshape(4000, -1).sum(axis=1)
    se = per_parent.std(ddof=1) / np.sqrt(4000)
    assert abs(per_parent.mean() - 1.25) <= 4 * se


def test_moment_row_one_point_grid():
    from wbp.spectral import TypeGrid

    grid = TypeGrid.finite(1)
    law = UniformSplitCascade(independent=True)
    cols, vals = law.moment_rows(grid, 2.0)
    assert cols.tolist() == [[0]]
    assert vals.tolist() == [[pytest.approx(2.0 / 3.0)]]
    with pytest.raises(ValueError):
        law.moment_rows(TypeGrid.finite(2), 1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ScaledUniformCascade(c=-1.0),
        lambda: ScaledUniformCascade(c=float("nan")),
        lambda: ScaledUniformCascade(c=float("inf")),
        lambda: finite_cascade([(0.5, float("nan"))]),
        lambda: finite_cascade([(0.5, float("inf"))]),
        lambda: finite_cascade([(-0.1, 1.1)]),
        lambda: finite_cascade(atoms=((0.5, float("nan")), (1.0,)), probs=(0.5, 0.5)),
        lambda: finite_cascade(atoms=((float("inf"),),), probs=(1.0,)),
        lambda: finite_cascade(atoms=((-0.5, 1.5),), probs=(1.0,)),
    ],
    ids=[
        "scaled-negative",
        "scaled-nan",
        "scaled-inf",
        "deterministic-nan",
        "deterministic-inf",
        "deterministic-negative",
        "mixture-nan",
        "mixture-inf",
        "mixture-negative",
    ],
)
def test_bad_factors_refused_when_the_law_is_built(make):
    with pytest.raises(ValueError):
        make()


def test_zero_factors_are_accepted_at_construction():
    assert ScaledUniformCascade(c=0.0).mean_total_mass() == 0.0
    assert finite_cascade([(0.0, 1.0)]).mean_total_mass() == 1.0
    assert finite_cascade(atoms=((0.0,), (1.0,)), probs=(0.5, 0.5)).mean_total_mass() == 0.5


def test_one_atom_table_draws_no_uniform():
    # a deterministic law on both paths: the stream is left where it was
    law = finite_cascade([(0.5, 0.25)])
    rng = derive_stream(0, 0)
    state = rng.bit_generator.state
    batch = law.sample_generation(np.full(3, 2.0), np.zeros(3, dtype=np.int64), rng)
    assert batch.weights.tolist() == [1.0, 0.5] * 3 and batch.types.tolist() == [0] * 6
    assert law.sample_progeny(0, rng) == [(0.5, 0), (0.25, 0)]
    assert rng.bit_generator.state == state


def test_misaligned_atoms_and_probs_are_refused():
    with pytest.raises(ValueError, match="atoms and probs must align"):
        finite_cascade([(0.5,), (1.0,)], (1.0,))


@pytest.mark.parametrize(
    "moment,message",
    [
        (lambda: finite_cascade([(1e200, 1e200)]).factor_moment(2.0), r"E\(sum u\^q\) of order 2.0"),
        (lambda: finite_cascade([(1e300, 1e300)]).total_mass_power(2.0), r"E\(\(sum u\)\^p\) of order 2.0"),
        (
            lambda: finite_cascade([(1e308, 1e308)]).total_mass_loglog(),
            r"E\(\(sum u\) log\+\(sum u\)\) of order 1",
        ),
        (lambda: finite_cascade([(1e308,) * 300]).factor_log_moment(), r"E\(sum u log u\) of order 1"),
        (lambda: ScaledUniformCascade(c=1e300).total_mass_power(2.0), r"E\(\(sum u\)\^p\) of order 2.0"),
        (lambda: ScaledUniformCascade(c=1e200).factor_moment(2.0), r"E\(sum u\^q\) of order 2.0"),
    ],
)
def test_moment_past_float64_is_refused_with_its_name_and_order(moment, message):
    with pytest.raises(MomentOverflowError, match=message):
        moment()
