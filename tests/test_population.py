import numpy as np
import pytest

from wbp.cascades import (
    DeterministicCascade,
    MixtureCascade,
    ScaledUniformCascade,
    UniformSplitCascade,
)
from wbp.finite_type import MixtureFiniteTypeLaw, markov_chain_law, two_type_flip_law
from wbp.ifs import IfsLaw
from wbp.kernel_products import KernelProductLaw
from wbp.lineage import LineageLaw
from wbp.population import (
    Generation,
    PopulationCapError,
    ProgenyBatch,
    ProgenyError,
    ReproductionLaw,
    advance_generation,
    count_thresholds,
    cumulative_probs,
    initial_generation,
    simulate_trajectory,
)
from wbp.streams import derive_stream


class IdentityLaw(ReproductionLaw):
    """One child, factor 1, same type."""

    def sample_progeny(self, x, rng):
        return [(1.0, x)]


class BadFactorLaw(ReproductionLaw):
    def sample_progeny(self, x, rng):
        return [(-0.5, x)]


def test_identity_law_preserves_measure():
    law = IdentityLaw()
    g = initial_generation([2.0, 3.0], np.array([0, 1]))
    rng = derive_stream(0, 0)
    h = advance_generation(g, law, rng)
    assert h.index == 1
    assert np.array_equal(h.weights, g.weights)
    assert np.array_equal(h.types, g.types)
    assert law.sample_generation(g.weights, g.types, rng).brood == 1


def test_advance_validates_factors():
    g = initial_generation([1.0], np.array([0]))
    with pytest.raises(ProgenyError):
        advance_generation(g, BadFactorLaw(), derive_stream(0, 0))


class FixedBatchLaw(ReproductionLaw):
    """Batch path that returns the given child weights and types, unchecked."""

    def __init__(self, child_weights, child_types=None):
        self.child_weights = np.asarray(child_weights, dtype=np.float64)
        n = self.child_weights.size
        self.child_types = np.zeros(n, dtype=np.int64) if child_types is None else child_types

    def sample_generation(self, weights, types, rng):
        # every slot split evenly over the parents
        return ProgenyBatch(self.child_weights, self.child_types, self.child_weights.size // len(weights))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, -1e-300])
def test_advance_rejects_nonfinite_or_negative_batch_weights(bad):
    g = initial_generation([1.0], np.array([0]))
    for weights in ([bad], [0.5, bad, 0.0], [bad, 2.0]):
        with pytest.raises(ProgenyError):
            advance_generation(g, FixedBatchLaw(weights), derive_stream(0, 0))


def test_advance_keeps_signed_zero_out_and_positive_weights_in():
    g = initial_generation([1.0], np.array([0]))
    h = advance_generation(g, FixedBatchLaw([0.25, -0.0, 0.0, 5e-324]), derive_stream(0, 0))
    assert np.array_equal(h.weights, [0.25, 5e-324])


@pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
def test_advance_drops_zero_slots_and_keeps_survivor_order_for_any_type_rank(shape):
    # two parents in broods of four; the survivors sit between zero slots
    w = [0.0, 0.5, 0.0, 0.0, 0.25, 0.0, 1.5, 0.0]
    types = np.arange(8 * int(np.prod(shape)), dtype=np.float64).reshape(8, *shape)
    g = initial_generation([1.0, 1.0], np.zeros((2, *shape)))
    h = advance_generation(g, FixedBatchLaw(w, types), derive_stream(0, 0))
    assert h.weights.tolist() == [0.5, 0.25, 1.5]
    assert h.types.shape == (3, *shape)
    assert np.array_equal(h.types, types[[1, 4, 6]])


def test_deterministic_binary_tree_enumeration():
    # after n steps: 2^n particles of weight 2^-n, total mass exactly 1
    law = DeterministicCascade((0.5, 0.5))
    g = law.root_generation()
    rng = derive_stream(1, 0)
    for n in range(1, 9):
        g = advance_generation(g, law, rng)
        assert g.size == 2**n
        assert np.all(g.weights == 0.5**n)
        assert g.total_mass() == 1.0



def test_brood_slots_address_previous_generation():
    # slot i * brood + k is child k of parent i, zero factors included; advance drops them
    law = DeterministicCascade((0.7, 0.0, 0.3))
    traj = simulate_trajectory(law, law.root_generation(), 4, derive_stream(0, 0))
    for n in range(1, len(traj)):
        g, prev = traj[n], traj[n - 1]
        assert g.index == n
        batch = law.sample_generation(prev.weights, prev.types, derive_stream(0, 0))
        assert batch.brood == 3 and batch.weights.size == 3 * prev.size
        assert np.array_equal(batch.weights.reshape(prev.size, 3), prev.weights[:, None] * [0.7, 0.0, 0.3])
        assert np.array_equal(g.weights, batch.weights[batch.weights > 0])
    # a law that drops nothing: particle i's parent is particle i // 2, so
    # particle 5 of generation 3 walks back 5 -> 2 -> 1 -> 0
    law = DeterministicCascade((0.7, 0.3))
    traj = simulate_trajectory(law, law.root_generation(), 3, derive_stream(0, 0))
    chain, i = [], 5
    for n in range(3, 0, -1):
        parent = i // 2
        assert traj[n].weights[i] == traj[n - 1].weights[parent] * (0.7, 0.3)[i % 2]
        chain.append(parent)
        i = parent
    assert chain == [2, 1, 0]
    assert traj[3].weights[5] == 0.7 * 0.3 * 0.3


def test_advance_refuses_a_batch_that_breaks_the_brood_layout():
    class ShortBatchLaw(ReproductionLaw):
        def sample_generation(self, weights, types, rng):
            return ProgenyBatch(np.ones(3), np.zeros(3, dtype=np.int64), 2)

    g = initial_generation([1.0, 1.0], np.zeros(2, dtype=np.int64))
    with pytest.raises(ProgenyError, match="broods of 2"):
        advance_generation(g, ShortBatchLaw(), derive_stream(0, 0))


def test_reference_loop_pads_short_progeny_with_weight_zero():
    # one child for type 0, three for type 1: every parent gets three slots
    class RaggedLaw(ReproductionLaw):
        def sample_progeny(self, x, rng):
            return [(0.5, x)] if x == 0 else [(0.25, 0), (0.5, 1), (1.0, 1)]

    batch = RaggedLaw().sample_generation(np.array([2.0, 4.0]), np.array([0, 1]), derive_stream(0, 0))
    assert batch.brood == 3
    assert batch.weights.tolist() == [1.0, 0.0, 0.0, 1.0, 2.0, 4.0]
    assert batch.types.tolist() == [0, 0, 0, 0, 1, 1]


def test_empty_generation_advance():
    law = IdentityLaw()
    g = initial_generation([], np.array([], dtype=np.int64))
    h = advance_generation(g, law, derive_stream(0, 0))
    assert h.size == 0
    assert h.total_mass() == 0.0


def test_advance_carries_each_particle_root_through_zero_weight_filtering():
    # every atom's factors add up to 1 in dyadic arithmetic, so a tree keeps
    # its root weight exactly, however many of its children had factor 0
    law = MixtureCascade(((0.5, 0.0, 0.5), (0.25, 0.75, 0.0), (1.0, 0.0, 0.0)), (0.25, 0.5, 0.25))
    start = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
    g = Generation(start, np.zeros(5, dtype=np.int64), root=np.arange(5))
    rng = derive_stream(12, 0)
    for n in range(1, 7):
        slots = 3 * g.size
        g = advance_generation(g, law, rng)
        assert g.index == n and g.root.shape == g.weights.shape
        assert g.size < slots and np.all(g.weights > 0)
        # survivors keep slot order, so the roots stay sorted
        assert np.all(np.diff(g.root) >= 0)
        assert np.array_equal(np.bincount(g.root, g.weights, 5), start)
    assert np.unique(np.bincount(g.root, minlength=5)).size > 1  # the trees differ in size
    # a single tree carries no root array
    assert advance_generation(law.root_generation(), law, rng).root is None


def test_zero_weight_children_are_dropped():
    law = DeterministicCascade((0.7, 0.0, 0.3))
    g = law.root_generation()
    h = advance_generation(g, law, derive_stream(0, 0))
    assert h.size == 2
    assert np.all(h.weights > 0)


def test_population_cap_raises():
    law = DeterministicCascade((0.5, 0.5))
    g = law.root_generation()
    rng = derive_stream(0, 0)
    with pytest.raises(PopulationCapError) as err:
        for _ in range(10):
            g = advance_generation(g, law, rng, cap=100)
    assert err.value.cap == 100


def test_population_cap_bounds_each_tree_of_a_multi_root_generation():
    # 50 trees of 2^n particles: together over the cap from n = 2, one tree only at n = 7
    law = DeterministicCascade((0.5, 0.5))
    g = Generation(np.ones(50), np.zeros(50, dtype=np.int64), root=np.arange(50))
    rng = derive_stream(0, 0)
    for _ in range(6):
        g = advance_generation(g, law, rng, cap=100)
    assert g.size == 50 * 64
    with pytest.raises(PopulationCapError) as err:
        advance_generation(g, law, rng, cap=100)
    assert (err.value.generation_index, err.value.count, err.value.cap) == (7, 128, 100)


def test_determinism_bit_identical():
    law = UniformSplitCascade(independent=True)
    a = simulate_trajectory(law, law.root_generation(), 8, derive_stream(7, 3))
    b = simulate_trajectory(law, law.root_generation(), 8, derive_stream(7, 3))
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.weights, gb.weights)


def test_mass_recursion_in_expectation():
    # MC average of advance(g)(1_A) approaches sum_e w_e Q_{X_e}(A) at 4 SE
    law = UniformSplitCascade(independent=True)
    g = initial_generation([0.5, 1.5], np.zeros(2, dtype=np.int64))
    rng = derive_stream(42, 0)
    reps = 20_000
    masses = np.empty(reps)
    for r in range(reps):
        masses[r] = advance_generation(g, law, rng).total_mass()
    expected = 2.0  # sum of weights times unit mean offspring mass
    se = masses.std(ddof=1) / np.sqrt(reps)
    assert abs(masses.mean() - expected) <= 4 * se


def _cascade(law, p):
    return law, np.zeros(p, dtype=np.int64), law.sample_progeny


def _finite_type(law, p):
    return law, derive_stream(9, 2).integers(0, law.n_types, p), law.sample_progeny


def _ragged_kernel_product(p):
    # lists of one, two and three matrices: short lists are padded to three slots
    rng = np.random.default_rng(8)
    lists = ((rng.normal(size=(2, 2)),) * 3, (rng.normal(size=(2, 2)),), (rng.normal(size=(2, 2)),) * 2)
    law = KernelProductLaw(lists, (0.2, 0.5, 0.3))
    return law, rng.normal(size=(p, 2, 2)), law.sample_progeny


def _lineage(p):
    # the base law's children, each carrying its parent's running sum plus f of its type
    f = np.array([0.25, 1.5])
    base = MixtureFiniteTypeLaw(([(0.5, [(0.5, 0), (0.5, 1)]), (0.5, [(1.0, 1)])], [(1.0, [(0.75, 0)])]))
    types = np.column_stack([derive_stream(9, 2).integers(0, 2, p), np.linspace(0.0, 3.0, p)])

    def progeny(x, rng):
        return [(u, [float(y), x[1] + f[y]]) for u, y in base.sample_progeny(x[0], rng)]

    return LineageLaw(base, f), types, progeny


BUILT_IN_LAWS = {
    "deterministic": lambda p: _cascade(DeterministicCascade((0.7, 0.0, 0.3)), p),
    "split": lambda p: _cascade(UniformSplitCascade(independent=False), p),
    "split-indep": lambda p: _cascade(UniformSplitCascade(independent=True), p),
    "scaled": lambda p: _cascade(ScaledUniformCascade(c=2.0), p),
    "mixture-cascade": lambda p: _cascade(
        MixtureCascade(((0.25, 0.75), (1.0,), (0.8, 0.0)), (0.25, 0.5, 0.25)), p
    ),
    "flip": lambda p: _finite_type(two_type_flip_law(), p),
    "markov": lambda p: _finite_type(markov_chain_law([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.4, 0.0, 0.6]]), p),
    "finite-type": lambda p: _finite_type(
        MixtureFiniteTypeLaw(
            (
                [(0.3, [(0.5, 1), (0.0, 0), (0.7, 0)]), (0.7, [(1.1, 1)])],
                [(0.5, [(0.4, 0), (0.6, 1)]), (0.25, [(0.9, 0)]), (0.25, [(0.2, 1), (0.3, 1)])],
            )
        ),
        p,
    ),
    "kernel-product": _ragged_kernel_product,
    "lineage": _lineage,
}


@pytest.mark.parametrize("parents", [1, 64, 5000])
@pytest.mark.parametrize("name", sorted(BUILT_IN_LAWS))
def test_vectorized_matches_per_particle_sampling(name, parents):
    # same stream, same arithmetic: parent i's surviving slots are its
    # per-parent children, bitwise and in order. IfsLaw is left out, as its
    # batch path draws all weights before all maps.
    law, types, progeny = BUILT_IN_LAWS[name](parents)
    p = len(types)
    weights = derive_stream(9, 0).random(p) + 0.5
    batch = law.sample_generation(weights.copy(), types, derive_stream(8, 1))
    assert batch.weights.shape[0] == batch.types.shape[0] == batch.brood * p
    slot_w = batch.weights.reshape(p, batch.brood)
    slot_t = batch.types.reshape(p, batch.brood, *batch.types.shape[1:])
    rng = derive_stream(8, 1)
    for i in range(p):
        kids = [(weights[i] * u, y) for u, y in progeny(types[i], rng)]
        kids = [(w, y) for w, y in kids if w > 0]
        live = slot_w[i] > 0
        assert np.array_equal(slot_w[i][live], [w for w, _ in kids])
        assert np.array_equal(slot_t[i][live], np.array([y for _, y in kids]).reshape(-1, *slot_t.shape[2:]))


class _AlmostOneRng:
    """Stand-in generator whose every uniform is the largest double below 1."""

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


def _tenths_mixture_cascade():
    law = MixtureCascade(tuple((0.05 * (j + 1),) for j in range(10)), (0.1,) * 10)
    return law, np.zeros(1, dtype=np.int64), lambda b: b.weights.tolist() == [0.5]


def _tenths_finite_type():
    # type 0's row (ten atoms) is shorter than type 1's (eleven)
    law = MixtureFiniteTypeLaw(
        (
            [(0.1, [(0.05 * (j + 1), 1)]) for j in range(10)],
            [(0.5, [(1.0, 0)])] + [(0.05, [(1.0, 1)])] * 10,
        )
    )
    return law, np.zeros(1, dtype=np.int64), lambda b: b.weights.tolist() == [0.5] and b.types.tolist() == [1]


def _tenths_kernel_product():
    law = KernelProductLaw(tuple((np.array([[j + 1.0]]),) for j in range(10)), (0.1,) * 10)
    return law, np.eye(1)[None, :, :], lambda b: b.types.tolist() == [[[10.0]]]


def _tenths_ifs():
    maps = tuple((0.5, 0.05 * j) for j in range(10))
    law = IfsLaw(maps, (0.1,) * 10, DeterministicCascade((1.0,)))
    return law, np.zeros(1), lambda b: b.types.tolist() == [0.05 * 9]


@pytest.mark.parametrize(
    "make", [_tenths_mixture_cascade, _tenths_finite_type, _tenths_kernel_product, _tenths_ifs]
)
def test_uniform_just_below_one_draws_last_atom(make):
    # ten atoms of 0.1 sum to 0.9999999999999999; u in [that, 1) must still hit atom 10
    law, types, drew_last_atom = make()
    batch = law.sample_generation(np.ones(1), types, _AlmostOneRng())
    assert drew_last_atom(batch)


@pytest.mark.parametrize(
    "probs", [[1.0], [0.5, 0.5], [0.25, 0.0, 0.5, 0.25], [0.2, 0.3, 0.5, 0.0], [0.1] * 10, [1 / 3] * 3]
)
def test_count_thresholds_is_searchsorted_right(probs):
    cum = cumulative_probs(probs)
    thresholds = cum[cum < 1.0]
    # every threshold exactly, its neighbours on both sides, the ends of [0, 1) and random draws
    u = np.concatenate(
        [
            thresholds,
            np.nextafter(thresholds, 0.0),
            np.nextafter(thresholds, 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
            derive_stream(3, 0).random(1000),
        ]
    )
    j = count_thresholds(u, thresholds.tolist())
    assert np.array_equal(j, np.searchsorted(cum, u, side="right"))
    assert j.max() < len(probs)


def test_cumulative_probs_ends_at_one_on_last_positive_atom():
    assert np.cumsum([0.1] * 10)[-1] < 1.0
    assert cumulative_probs([0.1] * 10)[-1] == 1.0
    assert cumulative_probs([0.1] * 10 + [0.0]).tolist()[-2:] == [1.0, 1.0]
    with pytest.raises(ValueError, match="map_probs"):
        cumulative_probs([0.5, 0.6], "map_probs")
    with pytest.raises(ValueError):
        cumulative_probs([1.5, -0.5])
