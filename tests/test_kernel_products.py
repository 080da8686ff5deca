import warnings

import numpy as np
import pytest

from wbp.kernel_products import KernelProductLaw, kernel_norm, kernel_product_observable
from wbp.population import ProgenyError, ReproductionLaw, advance_generation, simulate_trajectory
from wbp.streams import derive_stream


def observable_track(traj, f):
    return np.array([kernel_product_observable(g, f) for g in traj])


def test_kernel_norm_reference_values():
    assert kernel_norm(np.eye(4)) == 1.0
    assert kernel_norm([[1.0, -2.0], [0.0, 3.0]]) == 3.0


def test_kernel_norm_submultiplicative_on_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        assert kernel_norm(a @ b) <= kernel_norm(a) * kernel_norm(b) + 1e-12


def test_root_is_the_start_row_of_weight_one():
    law = KernelProductLaw(((np.eye(3),),), (1.0,))
    g = law.root_generation(2)
    assert g.weights.tolist() == [1.0]
    assert g.types.tolist() == [[0.0, 0.0, 1.0]]


def test_identity_atoms_observable_constant():
    law = KernelProductLaw(((np.eye(2),),), (1.0,))
    traj = simulate_trajectory(law, law.root_generation(0), 5, derive_stream(0, 0))
    f = np.array([3.0, 7.0])
    obs = observable_track(traj, f)
    assert np.array_equal(obs, np.full(6, 3.0))


def test_two_half_children_observable_constant():
    # two children each carrying A = I/2: 2^n particles x (1/2)^n f(x) = f(x)
    half = 0.5 * np.eye(2)
    law = KernelProductLaw(((half, half),), (1.0,))
    traj = simulate_trajectory(law, law.root_generation(1), 6, derive_stream(0, 0))
    obs = observable_track(traj, np.array([2.0, 4.0]))
    assert np.allclose(obs, 4.0)


def test_types_are_rows_of_l1_norm_one():
    rng = np.random.default_rng(3)
    law = KernelProductLaw(((rng.normal(size=(3, 3)), rng.normal(size=(3, 3))),), (1.0,))
    traj = simulate_trajectory(law, law.root_generation(1), 6, derive_stream(0, 5))
    for g in traj:
        assert g.types.shape == (g.size, 3)
        assert np.allclose(np.abs(g.types).sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


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
        traj = simulate_trajectory(law, law.root_generation(0), horizon, derive_stream(31, r))
        obs[r] = observable_track(traj, f)
    for n in range(horizon + 1):
        exact = float((np.linalg.matrix_power(pmat, n) @ f)[0])
        col = obs[:, n]
        se = col.std(ddof=1) / np.sqrt(reps)
        assert abs(col.mean() - exact) <= 4 * max(se, 1e-15)


@pytest.mark.parametrize("x_index", [0, 1])
def test_signed_model_matches_start_row_of_matrix_powers(x_index):
    # one matrix with entries of both signs: every tree is a single line, so
    # G_n(phi) is e_x A^n f to rounding
    a = np.array([[0.5, -0.75], [-0.25, 0.5]])
    law = KernelProductLaw(((a,),), (1.0,))
    f = np.array([1.0, 2.0])
    traj = simulate_trajectory(law, law.root_generation(x_index), 12, derive_stream(0, 1))
    exact = [float((np.linalg.matrix_power(a, n) @ f)[x_index]) for n in range(13)]
    assert np.allclose(observable_track(traj, f), exact, rtol=1e-13, atol=0.0)
    assert np.any(traj[-1].types < 0) and np.all(traj[-1].weights > 0)


def test_matrix_that_zeroes_a_row_drops_the_child_without_warning():
    # row e_0 of `kill` is 0: the child by `kill` of the root has no mass
    kill = np.array([[0.0, 0.0], [1.0, 1.0]])
    law = KernelProductLaw(((np.eye(2), kill),), (1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = law.sample_generation(np.ones(1), law.root_generation(0).types, derive_stream(0, 0))
        child = advance_generation(law.root_generation(0), law, derive_stream(0, 0))
    assert batch.weights.tolist() == [1.0, 0.0]
    assert batch.types.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert child.size == 1 and child.types.tolist() == [[1.0, 0.0]]


def test_huge_entries_keep_the_observable_exact():
    big = np.array([[1e200, 0.0], [0.0, 1e200]])
    law = KernelProductLaw(((big,),), (1.0,))
    traj = simulate_trajectory(law, law.root_generation(0), 1, derive_stream(0, 2))
    child = traj[1]
    assert child.types.tolist() == [[1.0, 0.0]]  # a row of l1 norm 1
    assert child.weights.tolist() == [1e200]  # the scale in the weight
    assert observable_track(traj, np.array([1.0, 0.0]))[1] == 1e200


def test_weight_overflow_ends_in_progeny_error():
    big = np.array([[1e200, 0.0], [0.0, 1e200]])
    law = KernelProductLaw(((big,),), (1.0,))
    with np.errstate(over="ignore"), pytest.raises(ProgenyError):
        simulate_trajectory(law, law.root_generation(0), 2, derive_stream(0, 2))


def test_probability_validation():
    with pytest.raises(ValueError):
        KernelProductLaw(((np.eye(2),),), (0.5,))
    with pytest.raises(ValueError):
        KernelProductLaw(((np.eye(2),), (np.eye(3),)), (0.5, 0.5))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_matrix_entries_refused(bad):
    with pytest.raises(ValueError):
        KernelProductLaw(((np.array([[1.0, bad], [0.0, 1.0]]),),), (1.0,))
    with pytest.raises(ValueError):
        KernelProductLaw(((np.eye(2),), (np.eye(2), np.full((2, 2), bad))), (0.5, 0.5))


def _unit_rows(rng, p, d):
    rows = rng.normal(size=(p, d))
    return rows / np.abs(rows).sum(axis=1)[:, None]


def _batch_against_reference(law, weights, types, seed):
    """The batch path and the per-parent reference loop on the same stream.

    The batch path pads every list to the law's longest, the loop to the
    longest drawn; each parent's children (the slots of weight above 0)
    agree bitwise and in order.
    """
    batch = law.sample_generation(weights, types, derive_stream(seed, 0))
    ref = ReproductionLaw.sample_generation(law, weights, types, derive_stream(seed, 0))
    p = weights.size
    assert batch.brood == max(map(len, law.atom_lists)) and batch.weights.size == p * batch.brood

    def children(b):
        live = b.weights > 0
        return live.reshape(p, b.brood).sum(axis=1), b.weights[live], b.types[live]

    for got, want in zip(children(batch), children(ref)):
        assert np.array_equal(got, want)
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
        batch = _batch_against_reference(law, weights, _unit_rows(rng, p, 3), seed)
        assert batch.types.shape == (batch.weights.size, 3)
        assert batch.brood == 3
        sizes.update(np.count_nonzero(batch.weights.reshape(p, 3), axis=1).tolist())
    assert sizes == {1, 2, 3}  # every list length was drawn


def test_trajectory_through_batch_path_matches_reference_loop():
    a1 = np.array([[0.6, 0.2], [0.1, 0.5]])
    a2 = np.array([[0.3, 0.4], [0.2, 0.6]])
    law = KernelProductLaw(((a1, a2), (a2,)), (0.5, 0.5))
    g = law.root_generation(0)
    rng_batch, rng_ref = derive_stream(4, 0), derive_stream(4, 0)
    w, t = g.weights, g.types
    for _ in range(8):
        batch = law.sample_generation(w, t, rng_batch)
        ref = ReproductionLaw.sample_generation(law, w, t, rng_ref)
        assert np.array_equal(batch.weights, ref.weights)
        # the padding slots are dropped, as on advance
        live = batch.weights > 0
        assert np.array_equal(batch.types[live], ref.types[live])
        w, t = batch.weights[live], batch.types[live]
