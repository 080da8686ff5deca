import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbp.cascades import DeterministicCascade, UniformSplitCascade
from wbp.population import (
    AncestryUnavailableError,
    Generation,
    Label,
    PopulationCapError,
    ProgenyBatch,
    ProgenyError,
    ReproductionLaw,
    TruncationPolicy,
    advance_generation,
    initial_generation,
    integrate,
    lineage_measure,
    lineage_types,
    pth_power_measure,
    sample_progeny,
    simulate_trajectory,
)
from wbp.streams import derive_stream


class IdentityLaw(ReproductionLaw):
    """One child, factor 1, same type."""

    def sample_progeny(self, x, rng):
        return [(1.0, x)], 0.0


class GeometricTailLaw(ReproductionLaw):
    """Infinite progeny u_i = 2^-i, truncated to keep the tail below epsilon."""

    def __init__(self, epsilon):
        self.truncation = TruncationPolicy.tail_bounded(epsilon)

    def sample_progeny(self, x, rng):
        eps = self.truncation.epsilon
        out = []
        u = 0.5
        while True:
            out.append((u, x))
            if u <= eps:  # remaining tail equals the last emitted term
                break
            u /= 2.0
        return out, u

    def sample_generation(self, weights, types, rng):
        return super().sample_generation(weights, types, rng)


class BadFactorLaw(ReproductionLaw):
    def sample_progeny(self, x, rng):
        return [(-0.5, x)], 0.0


def test_label_basics():
    root = Label()
    assert root.generation == 0
    child = root.child(3).child(0)
    assert child.path == (3, 0)
    assert child.generation == 2
    assert root.is_ancestor_of(child)
    assert not child.is_ancestor_of(root)
    assert str(child) == "0:3.0"


def test_identity_law_preserves_measure():
    law = IdentityLaw()
    g = initial_generation([2.0, 3.0], np.array([0, 1]))
    rng = derive_stream(0, 0)
    h = advance_generation(g, law, rng, retain=True)
    assert h.index == 1
    assert np.array_equal(h.weights, g.weights)
    assert np.array_equal(h.types, g.types)
    assert [str(l) for l in h.labels()] == ["0:0", "1:0"]


def test_sample_progeny_validates():
    law = BadFactorLaw()
    with pytest.raises(ProgenyError):
        sample_progeny(law, 0, derive_stream(0, 0))


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


def test_pth_power_measure_examples():
    g = initial_generation([0.5, 0.5], np.array([0, 0]))
    g2 = pth_power_measure(g, 2.0)
    assert np.allclose(g2.weights, [0.25, 0.25])
    assert g2.total_mass() == 0.5
    ones = initial_generation([1.0, 1.0], np.array([0, 1]))
    assert np.array_equal(pth_power_measure(ones, 1.7).weights, ones.weights)


def test_pth_power_binary_tree_depth_n():
    # 2^n particles of weight 2^-n: squared total mass is 2^-n
    law = DeterministicCascade((0.5, 0.5))
    traj = simulate_trajectory(law, law.root_generation(), 6, derive_stream(0, 0))
    for n, g in enumerate(traj):
        assert pth_power_measure(g, 2.0).total_mass() == 0.5**n


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
    p=st.floats(1.01, 2.0),
    q=st.floats(1.01, 2.0),
)
def test_pth_power_composition(weights, p, q):
    g = initial_generation(weights, np.zeros(len(weights), dtype=np.int64))
    combined = pth_power_measure(pth_power_measure(g, p), q)
    direct = pth_power_measure(g, p * q)
    assert np.allclose(combined.weights, direct.weights, rtol=1e-12)


def test_truncation_tail_bound_respected():
    law = GeometricTailLaw(1e-3)
    g = initial_generation([1.0], np.array([0]))
    h = advance_generation(g, law, derive_stream(0, 0))
    assert h.discarded_mass <= law.truncation.epsilon
    # the sampled mass plus the reported tail reconstructs the full unit mass
    assert h.total_mass() + h.discarded_mass == pytest.approx(1.0, abs=1e-12)


class OverpromisingLaw(ReproductionLaw):
    """Declares a tight tail bound but reports a larger discarded mass."""

    truncation = TruncationPolicy.tail_bounded(1e-9)

    def sample_progeny(self, x, rng):
        return [(0.5, x)], 1e-3


def test_truncation_violation_raises():
    g = initial_generation([1.0], np.array([0]))
    with pytest.raises(ProgenyError):
        advance_generation(g, OverpromisingLaw(), derive_stream(0, 0))


def test_determinism_bit_identical():
    law = UniformSplitCascade(independent=True)
    a = simulate_trajectory(law, law.root_generation(), 8, derive_stream(7, 3))
    b = simulate_trajectory(law, law.root_generation(), 8, derive_stream(7, 3))
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.weights, gb.weights)


def test_lineage_measure_single_step():
    law = IdentityLaw()
    g0 = initial_generation([1.0], np.array([5]))
    g1 = advance_generation(g0, law, derive_stream(0, 0), retain=True)
    m = lineage_measure(g1, 0)
    assert np.array_equal(m.types, [5])
    assert m.mass == 1.0


def test_lineage_measure_two_types():
    # lineage types (a, b) with f(a)=0, f(b)=2 -> M_e(f) = 1
    g0 = initial_generation([1.0], np.array([9]))
    g1 = Generation(np.array([1.0]), np.array([0]), 1, np.array([0]), np.array([0]), g0)
    g2 = Generation(np.array([1.0]), np.array([1]), 2, np.array([0]), np.array([0]), g1)
    m = lineage_measure(g2, 0)
    assert np.array_equal(m.types, [0, 1])
    f = np.array([0.0, 2.0])
    assert m.integrate(f) == 1.0
    assert m.integrate(np.ones(2)) == 1.0  # unit total mass


def test_lineage_chain_matches_stored_path():
    # single-child chain: lineage average equals the mean of the stored path
    law = IdentityLawWithRandomTypes()
    g = initial_generation([1.0], np.array([0.0]))
    rng = derive_stream(11, 0)
    traj = simulate_trajectory(law, g, 50, rng, retain=True)
    types = lineage_types(traj[-1], 0)
    expected = np.array([g.types[0] for g in traj[1:]])
    assert np.array_equal(types, expected)
    m = lineage_measure(traj[-1], 0)
    assert m.integrate(lambda t: np.asarray(t)) == pytest.approx(expected.mean(), rel=1e-12)


class IdentityLawWithRandomTypes(ReproductionLaw):
    """One child of weight 1 with a fresh uniform type (a chain, not a tree)."""

    def sample_progeny(self, x, rng):
        return [(1.0, float(rng.random()))], 0.0


def test_lineage_fails_without_retention():
    law = IdentityLaw()
    g = initial_generation([1.0], np.array([0]))
    traj = simulate_trajectory(law, g, 3, derive_stream(0, 0), retain=False)
    with pytest.raises(AncestryUnavailableError):
        lineage_measure(traj[-1], 0)


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


def test_individual_view():
    law = DeterministicCascade((0.5, 0.5))
    traj = simulate_trajectory(law, law.root_generation(), 2, derive_stream(0, 0), retain=True)
    ind = traj[2].individual(3)
    assert ind.weight == 0.25
    assert ind.label.path == (1, 1)
