import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wbp.finite_type import MixtureFiniteTypeLaw
from wbp.population import advance_generation, initial_generation
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
    width = batch.weights.size // types.size
    child_w = batch.weights.reshape(types.size, width)
    child_t = batch.types.reshape(types.size, width)
    assert np.array_equal(batch.parent_index, np.repeat(np.arange(types.size), width))
    for i, (t, ui) in enumerate(zip(types, u)):
        j = int(np.searchsorted(cums[t], ui, side="right"))
        offspring = law.atoms_per_type[t][j][1]
        k = len(offspring)
        assert np.array_equal(child_w[i, :k], [weights[i] * f for f, _ in offspring])
        assert np.array_equal(child_t[i, :k], [y for _, y in offspring])
        assert not child_w[i, k:].any()  # padding children carry weight 0


def test_advance_drops_the_padding_of_short_offspring_lists():
    # one child or two: the one-child atom is padded to width 2 with weight 0
    law = MixtureFiniteTypeLaw(([(0.5, [(1.0, 0)]), (0.5, [(0.5, 0), (0.25, 0)])],))
    g = initial_generation(np.ones(300), np.zeros(300, dtype=np.int64))
    nxt = advance_generation(g, law, derive_stream(3, 0))
    u = derive_stream(3, 0).random(300)
    assert nxt.size == int(np.sum(np.where(u < 0.5, 1, 2)))
    assert np.all(nxt.weights > 0)
