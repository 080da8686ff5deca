import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wbp.finite_type import MixtureFiniteTypeLaw
from wbp.population import advance_generation, cumulative_probs, initial_generation
from wbp.streams import derive_stream


class FixedUniforms:
    """Stand-in generator whose one batch of uniforms is chosen by the test."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@st.composite
def law_and_draws(draw):
    n_types = draw(st.integers(1, 5))
    atoms_per_type = []
    for _ in range(n_types):
        n_atoms = draw(st.integers(1, 4))
        masses = draw(st.lists(st.integers(1, 9), min_size=n_atoms, max_size=n_atoms))
        atoms = []
        for m in masses:
            width = draw(st.integers(1, 3))
            offspring = [
                (draw(st.sampled_from([0.0, 0.25, 1.0, 1.5])), draw(st.integers(0, n_types - 1)))
                for _ in range(width)
            ]
            atoms.append((m / sum(masses), offspring))
        atoms_per_type.append(atoms)
    law = MixtureFiniteTypeLaw(tuple(atoms_per_type))
    p = draw(st.integers(1, 40))
    types = np.array(draw(st.lists(st.integers(0, n_types - 1), min_size=p, max_size=p)))
    cums = [np.cumsum([a[0] for a in atoms]) for atoms in atoms_per_type]
    u = []
    for t in types:
        # a fresh uniform, exactly 0, or exactly one of the type's table entries
        on_entry = st.sampled_from([0.0] + [float(c) for c in cums[t] if c < 1.0])
        u.append(draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), on_entry)))
    return law, types, np.array(u), cums


@settings(max_examples=200, deadline=None)
@given(law_and_draws())
def test_one_shot_draw_equals_per_type_searchsorted(case):
    law, types, u, cums = case
    assume(all(ui < cums[t][-1] for ui, t in zip(u, types)))
    weights = np.linspace(0.5, 2.0, types.size)
    batch = law.sample_generation(weights, types, FixedUniforms(u))
    width = batch.brood
    assert batch.weights.size == batch.types.size == types.size * width
    child_w = batch.weights.reshape(types.size, width)
    child_t = batch.types.reshape(types.size, width)
    for i, (t, ui) in enumerate(zip(types, u)):
        j = int(np.searchsorted(cums[t], ui, side="right"))
        offspring = law.atoms_per_type[t][j][1]
        k = len(offspring)
        assert np.array_equal(child_w[i, :k], [weights[i] * f for f, _ in offspring])
        assert np.array_equal(child_t[i, :k], [y for _, y in offspring])
        assert not child_w[i, k:].any()  # padding children carry weight 0


def test_300_atom_draw_equals_searchsorted():
    # type 1 has 300 atoms and type 0 only 2: the table's rows count up to 299,
    # past what a narrow integer holds; atom j of type 1 has one child of
    # factor (j + 1) / 512, so a child's weight names its atom
    rng = np.random.default_rng(300)
    probs = rng.random(300) * (rng.random(300) < 0.8)
    probs[-1] += 0.1
    probs /= probs.sum()
    law = MixtureFiniteTypeLaw(
        (
            [(0.5, [(1.0, 0)]), (0.5, [(1.0, 1)])],
            [(pr, [((j + 1) / 512, 1)]) for j, pr in enumerate(probs)],
        )
    )
    cum = cumulative_probs(probs)
    u = np.concatenate([rng.random(4000), cum[cum < 1.0], [0.0, np.nextafter(1.0, 0.0)]])
    types = np.ones(u.size, dtype=np.int64)
    batch = law.sample_generation(np.ones(u.size), types, FixedUniforms(u))
    expected = np.searchsorted(cum, u, side="right")
    assert expected.max() == 299
    assert np.array_equal(batch.weights, (expected + 1) / 512)
    assert np.all(batch.types == 1)


def test_advance_drops_the_padding_of_short_offspring_lists():
    # one child or two: the one-child atom is padded to width 2 with weight 0
    law = MixtureFiniteTypeLaw(([(0.5, [(1.0, 0)]), (0.5, [(0.5, 0), (0.25, 0)])],))
    g = initial_generation(np.ones(300), np.zeros(300, dtype=np.int64))
    nxt = advance_generation(g, law, derive_stream(3, 0))
    u = derive_stream(3, 0).random(300)
    assert nxt.size == int(np.sum(np.where(u < 0.5, 1, 2)))
    assert np.all(nxt.weights > 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5, -1e-300])
def test_bad_factors_refused_when_the_law_is_built(bad):
    with pytest.raises(ValueError, match="finite and non-negative"):
        MixtureFiniteTypeLaw(([(1.0, [(bad, 0)])],))
    # also in a later atom of another type
    with pytest.raises(ValueError, match="finite and non-negative"):
        MixtureFiniteTypeLaw(([(1.0, [(0.5, 1)])], [(0.5, [(1.0, 0)]), (0.5, [(0.5, 1), (bad, 0)])]))


def test_zero_factor_is_accepted_and_leaves_no_child():
    law = MixtureFiniteTypeLaw(([(1.0, [(0.0, 0), (0.5, 0)])],))
    nxt = advance_generation(law.root_generation(), law, derive_stream(0, 0))
    assert nxt.weights.tolist() == [0.5]


class NoUniforms:
    """Stand-in generator that fails the test if a uniform is drawn."""

    def random(self, size=None):
        raise AssertionError("drew a uniform")


def test_no_uniform_is_drawn_when_no_type_has_an_atom_choice():
    # one atom per type, or a first atom of probability 1: the draw is certain
    law = MixtureFiniteTypeLaw(([(1.0, [(0.5, 1), (0.5, 1)])], [(1.0, [(0.25, 0)]), (0.0, [(1.0, 1)])]))
    batch = law.sample_generation(np.array([1.0, 2.0]), np.array([0, 1]), NoUniforms())
    assert batch.weights.tolist() == [0.5, 0.5, 0.5, 0.0]
    assert batch.types.tolist() == [1, 1, 0, 0]
    assert law.sample_progeny(1, NoUniforms()) == [(0.25, 0)]
    # one type with a choice: every parent draws, in both paths, as the paths share the stream
    law = MixtureFiniteTypeLaw(([(1.0, [(0.5, 1)])], [(0.5, [(0.25, 0)]), (0.5, [(1.0, 1)])]))
    with pytest.raises(AssertionError, match="drew a uniform"):
        law.sample_generation(np.ones(1), np.zeros(1, dtype=np.int64), NoUniforms())
    with pytest.raises(AssertionError, match="drew a uniform"):
        law.sample_progeny(0, NoUniforms())
