import numpy as np
import pytest

from wbp.cascades import DeterministicCascade, MixtureCascade, UniformSplitCascade
from wbp.finite_type import MixtureFiniteTypeLaw
from wbp.ifs import AffineMap, IfsLaw
from wbp.kernel_products import KernelProductLaw
from wbp.population import (
    PopulationCapError,
    ProgenyBatch,
    ProgenyError,
    ReproductionLaw,
    advance_generation,
    cumulative_probs,
    initial_generation,
    integrate,
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
    assert h.parent_index.tolist() == [0, 1]


def test_advance_validates_factors():
    g = initial_generation([1.0], np.array([0]))
    with pytest.raises(ProgenyError):
        advance_generation(g, BadFactorLaw(), derive_stream(0, 0))


class FixedBatchLaw(ReproductionLaw):
    """Batch path that returns the given child weights, unchecked."""

    def __init__(self, child_weights):
        self.child_weights = np.asarray(child_weights, dtype=np.float64)

    def sample_generation(self, weights, types, rng):
        n = self.child_weights.size
        return ProgenyBatch(self.child_weights, np.zeros(n, dtype=np.int64), np.zeros(n))


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



def test_parent_index_addresses_previous_generation():
    # each particle is its parent's weight times its factor; zero factors leave no child
    law = DeterministicCascade((0.7, 0.0, 0.3))
    traj = simulate_trajectory(law, law.root_generation(), 4, derive_stream(0, 0))
    for n in range(1, len(traj)):
        g, prev = traj[n], traj[n - 1]
        assert g.index == n
        assert g.parent_index.tolist() == np.repeat(np.arange(prev.size), 2).tolist()
        factors = np.tile([0.7, 0.3], prev.size)
        assert np.array_equal(g.weights, prev.weights[g.parent_index] * factors)
    # walk particle 5 of generation 3 back to the root: 5 -> 2 -> 1 -> 0
    chain, i = [], 5
    for n in range(3, 0, -1):
        i = int(traj[n].parent_index[i])
        chain.append(i)
    assert chain == [2, 1, 0]
    assert traj[3].weights[5] == 0.7 * 0.3 * 0.3

def test_empty_generation_advance():
    law = IdentityLaw()
    g = initial_generation([], np.array([], dtype=np.int64))
    h = advance_generation(g, law, derive_stream(0, 0))
    assert h.size == 0
    assert integrate(h, lambda t: np.ones(len(t))) == 0.0


def test_integrate_direct_arithmetic():
    g = initial_generation([2.0, 3.0], np.array([0, 1]))
    assert integrate(g, np.array([1.0, -1.0])) == -1.0
    assert integrate(g, lambda t: np.ones(len(t))) == 5.0


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
    maps = tuple(AffineMap(0.5, 0.05 * j) for j in range(10))
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


def test_cumulative_probs_ends_at_one_on_last_positive_atom():
    assert np.cumsum([0.1] * 10)[-1] < 1.0
    assert cumulative_probs([0.1] * 10)[-1] == 1.0
    assert cumulative_probs([0.1] * 10 + [0.0]).tolist()[-2:] == [1.0, 1.0]
    with pytest.raises(ValueError, match="map_probs"):
        cumulative_probs([0.5, 0.6], "map_probs")
    with pytest.raises(ValueError):
        cumulative_probs([1.5, -0.5])
