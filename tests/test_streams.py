import numpy as np

from wbp.streams import derive_seed, derive_stream, splitmix64


def test_splitmix64_reference_vector():
    # first outputs of the reference generator seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0xE220A8397B1DCDAF - 0x9E3779B97F4A7C15 + 0) != 0  # stays in range


def test_splitmix64_range():
    for x in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        v = splitmix64(x)
        assert 0 <= v < 2**64


def test_derive_stream_deterministic():
    a = derive_stream(12345, 7).random(16)
    b = derive_stream(12345, 7).random(16)
    assert np.array_equal(a, b)


def test_derive_stream_distinct_indices():
    assert derive_seed(99, 0) != derive_seed(99, 1)
    a = derive_stream(99, 0).random(8)
    b = derive_stream(99, 1).random(8)
    assert not np.array_equal(a, b)


def test_derived_seeds_pairwise_distinct():
    seeds = {derive_seed(2024, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def test_negative_index_rejected():
    import pytest

    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_root_seed_outside_64_bits_rejected():
    import pytest

    # such seeds used to be reduced modulo 2^64, so -3 and 2^64 - 3 shared a stream
    for seed in (-1, -3, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match="root seed"):
            derive_seed(seed, 0)
    assert derive_seed(2**64 - 1, 0) != derive_seed(0, 0)
