import numpy as np
import pytest

from wbp.finite_type import (
    MixtureFiniteTypeLaw,
    markov_chain_law,
    stationary_distribution,
    two_type_flip_law,
)
from wbp.lineage import LineageLaw, lineage_average_increment
from wbp.population import ReproductionLaw, initial_generation, simulate_trajectory
from wbp.streams import derive_stream

CHAIN = np.array([[0.7, 0.3], [0.4, 0.6]])


def lineage_types(traj, n, i):
    """Types along the lineage of particle ``i`` of ``traj[n]``, generations 1..n.

    The oracle for the running sums: it walks up the trajectory one
    generation at a time. The law must drop no child, so every generation
    is whole broods and particle ``i``'s parent is particle ``i // brood``.
    """
    out = []
    for g, prev in zip(reversed(traj[1 : n + 1]), reversed(traj[:n])):
        brood = g.size // prev.size
        assert g.size == brood * prev.size, "the law dropped a child"
        out.append(g.types[i])
        i //= brood
    return np.array(out[::-1])


def walked_average(traj, n, f):
    """``A_n(f) = sum_e w_e (1/n) sum_k f(X_k(e))`` by walking every lineage of ``traj[n]``."""
    g = traj[n]
    total = 0.0
    for i in range(g.size):
        total += g.weights[i] * float(np.sum(f(lineage_types(traj, n, i)))) / n
    return total


def test_stationary_distribution_two_state():
    pi = stationary_distribution(CHAIN)
    assert pi == pytest.approx([4.0 / 7.0, 3.0 / 7.0])
    assert np.allclose(pi @ CHAIN, pi)


def test_single_child_chain_is_birkhoff_average():
    # one lineage of weight 1: A_n(f) = arithmetic mean of f along the path
    f = np.array([0.0, 1.0])
    law = LineageLaw(markov_chain_law(CHAIN), f)
    traj = simulate_trajectory(law, law.root_generation(0), 200, derive_stream(1, 0))
    g = traj[-1]
    assert g.size == 1
    path = lineage_types(traj, 200, 0)[:, 0].astype(int)
    assert lineage_average_increment(g) == pytest.approx(f[path].mean(), rel=1e-12)


def test_constant_f_gives_total_mass_exactly():
    # M_e(1) = 1, so A_n(1) = G_n(1) pathwise, on a genuinely branching tree
    law = LineageLaw(two_type_flip_law(), np.ones(2))
    traj = simulate_trajectory(law, law.root_generation(0), 10, derive_stream(2, 0))
    for g in traj[1:]:
        assert lineage_average_increment(g) == g.total_mass()


def test_incremental_equals_tree_walk_exactly():
    # integer-valued f: running sums are exact, both routes agree bitwise
    f = np.array([0.0, 2.0])
    law = LineageLaw(two_type_flip_law(), f)
    traj = simulate_trajectory(law, law.root_generation(0), 12, derive_stream(3, 0))
    assert traj[-1].size == 4096
    for n, g in enumerate(traj[1:], start=1):
        inc = lineage_average_increment(g)
        sums = np.array([f[lineage_types(traj, n, i)[:, 0].astype(int)].sum() for i in range(g.size)])
        walk = float(np.dot(g.weights, sums) / g.index)
        assert inc == walk


def test_incremental_equals_tree_walk_when_siblings_differ():
    # random child types: each running sum must follow its own parent; every
    # list has two children of positive factor, so no slot is dropped
    base = MixtureFiniteTypeLaw(
        (
            [(0.5, [(0.5, 0), (0.5, 1)]), (0.5, [(1.0, 1), (0.25, 1)])],
            [(0.3, [(0.5, 1), (0.5, 0)]), (0.7, [(1.0, 0), (0.75, 1)])],
        )
    )
    f = np.array([1.0, 3.0])
    law = LineageLaw(base, f)
    traj = simulate_trajectory(law, law.root_generation(0), 8, derive_stream(8, 0))
    assert traj[-1].size > 8
    for n, g in enumerate(traj[1:], start=1):
        sums = np.array([f[lineage_types(traj, n, i)[:, 0].astype(int)].sum() for i in range(g.size)])
        assert np.array_equal(g.types[:, 1], sums)


def test_incremental_close_to_observable_route():
    f = np.array([0.3, 1.7])
    base = two_type_flip_law()
    enriched = LineageLaw(base, f)
    traj = simulate_trajectory(enriched, enriched.root_generation(0), 8, derive_stream(4, 0))
    averages = np.array([lineage_average_increment(g) for g in traj[1:]])

    def base_f(t):
        return f[np.rint(t[:, 0]).astype(int)]

    walked = np.array([walked_average(traj, n, base_f) for n in range(1, len(traj))])
    assert np.allclose(averages, walked, rtol=1e-12)


def test_exhaustive_small_tree_comparison():
    # depth-3 flip tree: enumerate all 8 lineages by hand
    f = np.array([5.0, 11.0])
    law = LineageLaw(two_type_flip_law(), f)
    traj = simulate_trajectory(law, law.root_generation(0), 3, derive_stream(5, 0))
    g3 = traj[3]
    # type alternates 0 -> 1 -> 0 -> 1 along every lineage
    for i in range(g3.size):
        path = lineage_types(traj, 3, i)[:, 0].astype(int)
        assert path.tolist() == [1, 0, 1]
    expected = (f[1] + f[0] + f[1]) / 3.0
    assert lineage_average_increment(g3) == pytest.approx(expected, rel=1e-14)


def test_ergodic_average_converges_to_stationary():
    f = np.array([0.0, 1.0])
    law = LineageLaw(markov_chain_law(CHAIN), f)
    pi_f = float(stationary_distribution(CHAIN) @ f)
    reps, horizon = 120, 400
    finals = np.empty(reps)
    for r in range(reps):
        traj = simulate_trajectory(law, law.root_generation(0), horizon, derive_stream(6, r))
        finals[r] = lineage_average_increment(traj[-1])
    se = finals.std(ddof=1) / np.sqrt(reps)
    assert abs(finals.mean() - pi_f) <= 4 * se


def test_lineage_law_requires_generation_one():
    law = LineageLaw(two_type_flip_law(), np.ones(2))
    with pytest.raises(ValueError):
        lineage_average_increment(law.root_generation(0))


class IdentityLawWithRandomTypes(ReproductionLaw):
    """One child of weight 1 with a fresh uniform type (a chain, not a tree)."""

    def sample_progeny(self, x, rng):
        return [(1.0, float(rng.random()))]


def test_lineage_chain_matches_stored_path():
    # single-child chain: the walked lineage is the stored path, and its average is the mean
    law = IdentityLawWithRandomTypes()
    g = initial_generation([1.0], np.array([0.0]))
    traj = simulate_trajectory(law, g, 50, derive_stream(11, 0))
    types = lineage_types(traj, 50, 0)
    expected = np.array([g.types[0] for g in traj[1:]])
    assert np.array_equal(types, expected)
    assert walked_average(traj, 50, lambda t: t) == pytest.approx(expected.mean(), rel=1e-12)
