import numpy as np
import pytest

from wbp.cascades import UniformSplitCascade
from wbp.martingale import _SIGMAS, degeneracy_probe, lp_error, martingale_increment_test, sigma_distance
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
    assert martingale_increment_test(np.ones((200, 6))) == []


def test_increment_test_allows_rounding_on_a_constant_mass():
    # every track is 1 up to its last bit: the increments' SE is at rounding level
    tracks = np.ones((200, 4))
    tracks[::2, 2] += 2 * np.finfo(np.float64).eps
    assert martingale_increment_test(tracks) == []
    tracks[:, 3] += 1e-6  # a drift far above rounding still flags
    assert martingale_increment_test(tracks) == [2]


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
    assert len(martingale_increment_test(tracks)) >= horizon - 2


def test_lp_error_deterministic_zero():
    tracks = np.ones((150, 11))
    estimate, se = lp_error(tracks, tracks, 2.0, 3, 4, 10, rng=np.random.default_rng(0))
    assert estimate == 0.0
    assert se == 0.0
    assert sigma_distance(estimate - 0.0, se, 0.0) <= _SIGMAS  # a zero bound holds


def test_lp_error_matches_direct_moment():
    rng = np.random.default_rng(0)
    w = np.cumsum(rng.normal(size=(5000, 11)), axis=1) * 0.01 + 1.0
    estimate, se = lp_error(w, w, 2.0, 2, 3, 10, rng=np.random.default_rng(1))
    direct = float(np.mean(np.abs(w[:, 5] - w[:, 10]) ** 2) ** 0.5)
    assert estimate == pytest.approx(direct, rel=1e-12)
    assert se > 0


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


def test_sigma_distance_allows_rounding_but_not_a_wrong_mean():
    def agrees(mean, se, exact):
        return sigma_distance(abs(mean - exact), se, exact) <= _SIGMAS

    assert agrees(1.1 + 2.2, 0.0, 3.3)  # last-bit difference, SE 0
    assert agrees(1.1, 1.3e-17, 1.1 + 4e-16)  # SE at rounding level
    assert not agrees(1.0, 0.0, 1.001)  # SE 0 does not pass anything
    assert agrees(1.0, 0.01, 1.039) and not agrees(1.0, 0.01, 1.041)
    assert not agrees(np.nan, 0.0, 1.0)


def test_one_sided_bound_allows_rounding_on_a_zero_bound():
    assert sigma_distance(5.3e-17 - 0.0, 6.4e-18, 0.0) <= _SIGMAS
    assert not sigma_distance(1e-10 - 0.0, 6.4e-18, 0.0) <= _SIGMAS
    assert sigma_distance(0.5 - 1.0, 0.0, 1.0) <= _SIGMAS  # an estimate under its bound
