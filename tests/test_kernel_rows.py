"""The fixed-width sparse kernel rows against dense matrices."""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_kernels import dense, from_dense
from wbp.cascades import CascadeLaw, UniformSplitCascade
from wbp.finite_type import MixtureFiniteTypeLaw
from wbp.harness import ExperimentConfig, _grid_law, make_model
from wbp.ifs import IfsLaw
from wbp.martingale import _SIGMAS, sigma_distance
from wbp.spectral import MeanKernel, TypeGrid, build_mean_kernel, power_iteration, support_period
from wbp.streams import derive_stream

GRID_MODELS = {
    "cascade-split": {"kind": "cascade", "spec": "uniform_split"},
    "cascade-split-indep": {"kind": "cascade", "spec": "uniform_split_indep"},
    "cascade-scaled": {"kind": "cascade", "spec": "scaled_uniform", "c": 2.0},
    "cascade-deterministic": {"kind": "cascade", "spec": "deterministic", "factors": [0.5, 0.5]},
    "cascade-mixture": {
        "kind": "cascade",
        "spec": "mixture",
        "atoms": [[0.6, 0.6], [0.8, 0.0]],
        "probs": [0.5, 0.5],
    },
    "two_type_flip": {"kind": "two_type_flip"},
    "markov_chain": {"kind": "markov_chain", "transition": [[0.5, 0.5], [0.2, 0.8]]},
    "markov_chain3": {
        "kind": "markov_chain",
        "transition": [[0.1, 0.6, 0.3], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]],
    },
    "lineage_chain": {
        "kind": "lineage_chain",
        "transition": [[0.5, 0.5], [0.2, 0.8]],
        "f": [1.0, 0.0],
    },
    "ifs": {"kind": "ifs", "maps": [[0.5, 0.0], [0.5, 0.5]], "h": 2.0**-5},
    # maps 0 and 1 land in one cell on most rows: rows of two and of three cells
    "ifs-overlap": {
        "kind": "ifs",
        "maps": [[0.25, 0.0], [0.25, 0.01], [0.3, 0.7]],
        "map_probs": [0.2, 0.3, 0.5],
        "weights": {"spec": "uniform_split_indep"},
        "h": 2.0**-6,
    },
}


def bundle_of(name):
    return make_model(ExperimentConfig.from_dict({"model": GRID_MODELS[name]}).model)


def dense_rows(law, grid, order):
    """Reference: the per-row dense moment kernel the sparse rows replaced."""
    d = grid.size
    m = np.zeros((d, d))
    for i, x in enumerate(grid.points):
        if isinstance(law, CascadeLaw):
            m[i] = [law.factor_moment(order)]
        elif isinstance(law, MixtureFiniteTypeLaw):
            for prob, offspring in law.atoms_per_type[int(x)]:
                for u, y in offspring:
                    if u > 0:
                        m[i, y] += prob * u**order
        elif isinstance(law, IfsLaw):
            cells = grid.locate(law._a * float(x) + law._b)
            np.add.at(m[i], cells, law.weights.factor_moment(order) * law._probs)
        else:
            raise TypeError(type(law).__name__)
    return m


@pytest.mark.parametrize("order", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("name", sorted(GRID_MODELS))
def test_sparse_kernel_equals_dense_build_for_every_grid_model(name, order):
    bundle = bundle_of(name)
    law = _grid_law(bundle)
    k = build_mean_kernel(law, bundle.grid, order)
    m = dense_rows(law, bundle.grid, order)
    assert np.array_equal(dense(k), m)
    # the rows store exactly the nonzero cells, each once
    assert np.count_nonzero(k.matrix) == np.count_nonzero(m)
    assert k.matrix.shape[1] == max(1, np.count_nonzero(m, axis=1).max())


@pytest.mark.parametrize("order", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("name", sorted(GRID_MODELS))
def test_moment_rows_agree_with_the_sampler(name, order):
    # each cell's closed-form mass against the mean of sum u**order over sampled parents
    bundle = bundle_of(name)
    law, grid = _grid_law(bundle), bundle.grid
    d = grid.size
    m = dense(build_mean_kernel(law, grid, order))
    rng = derive_stream(8, 0)
    parents = 20_000
    for i in np.unique(np.linspace(0, d - 1, min(d, 4)).astype(int)):
        batch = law.sample_generation(np.ones(parents), np.full(parents, grid.points[i]), rng)
        # one row per cell, so each mean sums a contiguous row pairwise: a
        # deterministic cell then averages to its value up to a few ulps
        slot = grid.locate(batch.types) * parents + np.arange(batch.weights.size) // batch.brood
        sums = np.bincount(slot, weights=batch.weights**order, minlength=d * parents).reshape(d, parents)
        mean = sums.mean(axis=1)
        se = sums.std(axis=1, ddof=1) / np.sqrt(parents)
        sigmas = [sigma_distance(abs(mean[j] - m[i, j]), se[j], m[i, j]) for j in range(d)]
        off = [(j, mean[j], se[j], m[i, j]) for j in range(d) if not sigmas[j] <= _SIGMAS]
        assert not off, f"grid point {i}: (cell, mean, se, exact) {off}"


def test_maps_landing_in_one_cell_share_its_slot():
    bundle = bundle_of("ifs-overlap")
    k = build_mean_kernel(bundle.law, bundle.grid, 1.0)
    assert set(np.count_nonzero(k.matrix, axis=1).tolist()) == {2, 3}
    assert k.matrix.shape == (bundle.grid.size, 3)


@st.composite
def row_entries(draw, dense=False):
    """``(d, k)`` cells and dyadic masses with repeated cells, and zero rows
    unless ``dense`` (which also gives each row at least ``d`` entries)."""
    d = draw(st.integers(1, 8))
    k = draw(st.integers(d if dense else 1, 2 * d))
    cols = np.array(draw(st.lists(st.integers(0, d - 1), min_size=d * k, max_size=d * k))).reshape(d, k)
    quarters = draw(st.lists(st.integers(0, 8), min_size=d * k, max_size=d * k))
    vals = np.array(quarters, dtype=np.float64).reshape(d, k) / 4.0
    if not dense:
        zero_rows = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        vals[np.array(zero_rows)] = 0.0
    v = np.array(draw(st.lists(st.integers(-8, 8), min_size=d, max_size=d)), dtype=np.float64) / 8.0
    return cols, vals, v


def scatter(cols, vals):
    d = vals.shape[0]
    m = np.zeros((d, d))
    np.add.at(m, (np.arange(d)[:, None], cols), vals)
    return m


@settings(max_examples=300, deadline=None)
@given(row_entries())
def test_apply_and_apply_t_match_dense_products(entries):
    # dyadic masses and vectors: every product and sum is exact, so any
    # summation order gives the dense result bit for bit
    cols, vals, v = entries
    d = vals.shape[0]
    k = MeanKernel.from_rows(cols, vals, TypeGrid.finite(d))
    m = scatter(cols, vals)
    assert np.array_equal(dense(k), m)
    assert np.array_equal(k.apply(v), m @ v)
    assert np.array_equal(k.apply_t(v), v @ m)
    assert np.count_nonzero(k.matrix) == np.count_nonzero(m)


def is_primitive(m):
    # Wielandt: a primitive d x d pattern has a positive power (d-1)^2 + 1
    d = m.shape[0]
    a = (m > 0).astype(np.int64)
    power = np.eye(d, dtype=np.int64)
    for _ in range((d - 1) ** 2 + 1):
        power = np.minimum(power @ a, 1)
    return bool(np.all(power > 0))


@settings(max_examples=200, deadline=None)
@given(row_entries(dense=True))
def test_power_iteration_theta_matches_dense_eigenvalues(entries):
    cols, vals, _ = entries
    d = vals.shape[0]
    m = scatter(cols, vals)
    assume(is_primitive(m))
    k = MeanKernel.from_rows(cols, vals, TypeGrid.finite(d))
    assert support_period(k) == 1
    sd = power_iteration(k)
    assert sd.theta == pytest.approx(np.max(np.abs(np.linalg.eigvals(m))), rel=1e-8)


def test_random_float_kernel_products_match_dense_to_rounding():
    rng = np.random.default_rng(11)
    d = 40
    m = rng.uniform(0.0, 1.0, size=(d, d)) * (rng.random((d, d)) < 0.3)
    k = from_dense(m, TypeGrid.finite(d))
    v = rng.normal(size=d)
    assert np.allclose(k.apply(v), m @ v, rtol=1e-13, atol=1e-13)
    assert np.allclose(k.apply_t(v), v @ m, rtol=1e-13, atol=1e-13)


def test_fine_ifs_grid_builds_and_solves_without_a_dense_kernel():
    # 16 384 cells: a dense kernel would take 2 GiB
    law = IfsLaw(((0.5, 0.0), (0.5, 0.5)), (0.5, 0.5), UniformSplitCascade(independent=True))
    grid = TypeGrid.interval(0.0, 1.0, 2.0**-14)
    t0 = time.perf_counter()
    k = build_mean_kernel(law, grid, 1.0)
    period = support_period(k)
    sd = power_iteration(k)
    elapsed = time.perf_counter() - t0
    assert grid.size == 16_384
    assert k.matrix.shape == (16_384, 2)
    assert period == 1
    assert sd.theta == pytest.approx(1.0, abs=1e-12)
    assert elapsed < 5.0


def _slot_order_sums(k, v):
    # each row's products added left to right in slot order, in Python floats
    out = []
    for cols, masses in zip(k.cols.tolist(), k.matrix.tolist()):
        acc = masses[0] * v[cols[0]]
        for c, m in zip(cols[1:], masses[1:]):
            acc += m * v[c]
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize(
    "d,width", [(d, w) for d in (2, 5, 24) for w in range(1, 13)] + [(1, w) for w in range(1, 8)]
)
def test_apply_adds_each_row_in_slot_order(d, width):
    # inexact masses, so a pairwise or unrolled row sum would round differently;
    # rows are built directly, so a cell may fill several slots of a row
    rng = np.random.default_rng(100 * d + width)
    cols = rng.integers(0, d, size=(d, width))
    masses = rng.uniform(0.0, 1.0, size=(d, width)) / 3.0
    k = MeanKernel(cols, masses, TypeGrid.finite(d))
    for _ in range(5):
        v = rng.normal(size=d)
        assert np.array_equal(k.apply(v), _slot_order_sums(k, v.tolist()))
