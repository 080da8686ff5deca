import numpy as np
import pytest

from wbp.cascades import UniformSplitCascade
from wbp.martingale import degeneracy_probe, lp_error, martingale_increment_test, track_matrix
from wbp.population import simulate_trajectory
from wbp.streams import derive_stream


def mass_sequence(traj):
    return np.array([g.total_mass() for g in traj])


def test_replicate_mean_is_one_within_4se():
    law = UniformSplitCascade(independent=True)
    reps, horizon = 2000, 6
    tracks = np.empty((reps, horizon + 1))
    for r in range(reps):
        traj = simulate_trajectory(law, law.root_generation(), horizon, derive_stream(2, r))
        tracks[r] = mass_sequence(traj)
    for n in range(horizon + 1):
        col = tracks[:, n]
        se = col.std(ddof=1) / np.sqrt(reps)
        assert abs(col.mean() - 1.0) <= 4 * max(se, 1e-15)


def test_increment_test_exact_zeros():
    tracks = np.ones((200, 6))
    rep = martingale_increment_test(tracks)
    assert rep.flagged == []
    assert np.array_equal(rep.means, np.zeros(5))


def test_increment_test_requires_tracks():
    with pytest.raises(ValueError):
        martingale_increment_test(np.ones((50, 4)))


def test_mis_scaled_theta_flags_drift():
    # tracks scaled by 1.1^-n drift deterministically; all steps flag
    law = UniformSplitCascade(independent=True)
    reps, horizon = 500, 8
    tracks = np.empty((reps, horizon + 1))
    for r in range(reps):
        traj = simulate_trajectory(law, law.root_generation(), horizon, derive_stream(3, r))
        tracks[r] = mass_sequence(traj) * 1.1 ** -np.arange(horizon + 1)
    rep = martingale_increment_test(tracks)
    assert len(rep.flagged) >= horizon - 2


def test_lp_error_deterministic_zero():
    tracks = np.ones((150, 11))
    rep = lp_error(tracks, tracks, 2.0, 3, 4, 10, rng=np.random.default_rng(0))
    assert rep.lhs_estimate == 0.0
    assert rep.stderr == 0.0
    assert rep.bound_holds() is None
    rep.rhs_bound = 0.0
    assert rep.bound_holds() is True


def test_lp_error_matches_direct_moment():
    rng = np.random.default_rng(0)
    w = np.cumsum(rng.normal(size=(5000, 11)), axis=1) * 0.01 + 1.0
    rep = lp_error(w, w, 2.0, 2, 3, 10, rng=np.random.default_rng(1))
    direct = float(np.mean(np.abs(w[:, 5] - w[:, 10]) ** 2) ** 0.5)
    assert rep.lhs_estimate == pytest.approx(direct, rel=1e-12)
    assert rep.stderr > 0


def test_lp_error_requires_survivors():
    tracks = np.full((150, 11), np.nan)
    tracks[:50] = 1.0
    with pytest.raises(ValueError):
        lp_error(tracks, tracks, 2.0, 2, 2, 10, rng=np.random.default_rng(0))


def test_lp_error_horizon_validation():
    tracks = np.ones((150, 5))
    with pytest.raises(ValueError):
        lp_error(tracks, tracks, 2.0, 3, 3, 4, rng=np.random.default_rng(0))  # m + n > proxy? 6 > 4
    with pytest.raises(ValueError):
        lp_error(tracks, tracks, 2.0, 1, 1, 9, rng=np.random.default_rng(0))  # proxy beyond track length


def test_degeneracy_probe_trivial():
    tracks = np.ones((300, 13))
    for n in range(13):
        assert degeneracy_probe(tracks, 0.5, n) == 0.0


def test_degeneracy_probe_counts_small_values():
    tracks = np.ones((10, 4))
    tracks[:4, 3] = 1e-6
    assert degeneracy_probe(tracks, 1e-3, 3) == pytest.approx(0.4)


def test_track_matrix_from_rows():
    assert track_matrix(np.ones(5)).shape == (1, 5)
