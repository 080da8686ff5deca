import numpy as np
import pytest

from wbp.kernel_products import KernelProductLaw, kernel_norm, kernel_product_observable
from wbp.population import ReproductionLaw, simulate_trajectory
from wbp.streams import derive_stream


def observable_track(traj, x_index, f):
    return np.array([kernel_product_observable(g, x_index, f) for g in traj])


def test_kernel_norm_reference_values():
    assert kernel_norm(np.eye(4)) == 1.0
    assert kernel_norm([[1.0, -2.0], [0.0, 3.0]]) == 3.0


def test_kernel_norm_submultiplicative_on_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        assert kernel_norm(a @ b) <= kernel_norm(a) * kernel_norm(b) + 1e-12


def test_identity_atoms_observable_constant():
    law = KernelProductLaw(((np.eye(2),),), (1.0,))
    traj = simulate_trajectory(law, law.root_generation(), 5, derive_stream(0, 0))
    f = np.array([3.0, 7.0])
    obs = observable_track(traj, 0, f)
    assert np.array_equal(obs, np.full(6, 3.0))


def test_two_half_children_observable_constant():
    # two children each carrying A = I/2: 2^n particles x (1/2)^n f(x) = f(x)
    half = 0.5 * np.eye(2)
    law = KernelProductLaw(((half, half),), (1.0,))
    traj = simulate_trajectory(law, law.root_generation(), 6, derive_stream(0, 0))
    obs = observable_track(traj, 1, np.array([2.0, 4.0]))
    assert np.allclose(obs, 4.0)


def test_replicate_mean_matches_mean_matrix_powers():
    a1 = np.array([[0.6, 0.2], [0.1, 0.5]])
    a2 = np.array([[0.3, 0.4], [0.2, 0.6]])
    b = np.array([[0.8, 0.1], [0.3, 0.4]])
    law = KernelProductLaw(((a1, a2), (b,)), (0.5, 0.5))
    pmat = law.mean_matrix()
    assert np.allclose(pmat, 0.5 * (a1 + a2) + 0.5 * b)

    reps, horizon = 4000, 5
    f = np.array([1.0, -1.0])
    obs = np.empty((reps, horizon + 1))
    for r in range(reps):
        traj = simulate_trajectory(law, law.root_generation(), horizon, derive_stream(31, r))
        obs[r] = observable_track(traj, 0, f)
    for n in range(horizon + 1):
        exact = float((np.linalg.matrix_power(pmat, n) @ f)[0])
        col = obs[:, n]
        se = col.std(ddof=1) / np.sqrt(reps)
        assert abs(col.mean() - exact) <= 4 * max(se, 1e-15)


def test_signed_matrices_allowed():
    a = np.array([[0.5, -0.25], [0.0, 0.5]])
    law = KernelProductLaw(((a,),), (1.0,))
    traj = simulate_trajectory(law, law.root_generation(), 3, derive_stream(0, 1))
    obs = observable_track(traj, 0, np.array([1.0, 1.0]))
    exact = [float((np.linalg.matrix_power(a, n) @ [1.0, 1.0])[0]) for n in range(4)]
    assert np.allclose(obs, exact)


def test_magnitude_rescaling_keeps_observable_exact():
    big = np.array([[1e200, 0.0], [0.0, 1e200]])
    law = KernelProductLaw(((big,),), (1.0,))
    g = law.root_generation()
    traj = simulate_trajectory(law, g, 1, derive_stream(0, 2))
    child = traj[1]
    assert np.max(np.abs(child.types)) < 1e200  # rescaled representation
    assert child.weights[0] > 1.0  # scale moved into the weight
    obs = observable_track(traj, 0, np.array([1.0, 0.0]))
    assert obs[1] == 1e200


def test_probability_validation():
    with pytest.raises(ValueError):
        KernelProductLaw(((np.eye(2),),), (0.5,))
    with pytest.raises(ValueError):
        KernelProductLaw(((np.eye(2),), (np.eye(3),)), (0.5, 0.5))


def _batch_against_reference(law, weights, types, seed):
    """The batch path and the per-parent reference loop on the same stream."""
    batch = law.sample_generation(weights, types, derive_stream(seed, 0))
    ref = ReproductionLaw.sample_generation(law, weights, types, derive_stream(seed, 0))
    assert np.array_equal(batch.weights, ref.weights)
    assert np.array_equal(batch.types, ref.types)
    assert np.array_equal(batch.parent_index, ref.parent_index)
    return batch


def test_batch_path_matches_per_parent_reference_on_ragged_lists():
    rng = np.random.default_rng(8)
    atoms = (
        tuple(rng.normal(size=(3, 3)) for _ in range(3)),
        (rng.normal(size=(3, 3)),),
        tuple(rng.normal(size=(3, 3)) for _ in range(2)),
    )
    law = KernelProductLaw(atoms, (0.2, 0.5, 0.3))
    sizes = set()
    for seed, p in enumerate((1, 2, 7, 64, 300)):
        weights = rng.uniform(0.1, 2.0, p)
        types = rng.normal(size=(p, 3, 3))
        batch = _batch_against_reference(law, weights, types, seed)
        assert batch.types.shape == (batch.weights.size, 3, 3)
        sizes.update(np.bincount(batch.parent_index, minlength=p).tolist())
    assert sizes == {1, 2, 3}  # every list length was drawn


def test_batch_path_matches_reference_through_the_rescale_branch():
    # only some children cross 2^512 (about 1.3e154), so rescaled and plain
    # children share one batch
    big = np.array([[1e100, 1.0], [0.0, 3e99]])
    small = np.array([[0.5, 0.25], [0.125, 0.5]])
    law = KernelProductLaw(((big, small), (small,), (big, big, small)), (0.4, 0.3, 0.3))
    weights = np.array([1.0, 0.5, 2.0, 1.5])
    types = np.stack([np.eye(2), 1e60 * np.eye(2), big, np.array([[7e150, 0.0], [1.0, 1.0]])])
    rescaled = []
    for seed in range(6):
        batch = _batch_against_reference(law, weights, types, seed)
        assert np.max(np.abs(batch.types)) <= 2.0**512
        rescaled.extend(batch.weights != weights[batch.parent_index])
    assert any(rescaled) and not all(rescaled)


def test_trajectory_through_batch_path_matches_reference_loop():
    a1 = np.array([[0.6, 0.2], [0.1, 0.5]])
    a2 = np.array([[0.3, 0.4], [0.2, 0.6]])
    law = KernelProductLaw(((a1, a2), (a2,)), (0.5, 0.5))
    g = law.root_generation()
    rng_batch, rng_ref = derive_stream(4, 0), derive_stream(4, 0)
    w, t = g.weights, g.types
    for _ in range(8):
        batch = law.sample_generation(w, t, rng_batch)
        ref = ReproductionLaw.sample_generation(law, w, t, rng_ref)
        assert np.array_equal(batch.weights, ref.weights)
        assert np.array_equal(batch.types, ref.types)
        w, t = batch.weights, batch.types
