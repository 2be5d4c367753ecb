"""The uniform/normal stream contract: draw i depends only on (seed, i)."""

import numpy as np
import pytest

from dynhd.rng import (MAX_SEED, TWO_PI, check_seed, normal_uniforms,
                       paired_normals, uniforms)

# Pinned first draws for seed=123, derived in test_matches_raw_bit_outputs
# below; they guard against silent changes to the stream definition.
SEED123_UNIFORMS = [
    0.5170052385149787, 0.18380038030745394, 0.2128372644551676,
    0.20996920348350878, 0.3628162495103908, 0.10630955649437224,
]
SEED123_NORMALS = [
    0.48746722304619483, 1.1035735810564709, 0.17218290660420293,
    0.6700698406551661,
]


def test_matches_raw_bit_outputs():
    # Independent derivation: uniform i is raw 64-bit output i, top 53 bits,
    # scaled to [0, 1).
    raw = np.random.Philox(key=123).random_raw(6)
    expect = np.array([(int(r) >> 11) * 2.0 ** -53 for r in raw])
    got = uniforms(123, 0, 6)
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(got, np.array(SEED123_UNIFORMS))


def test_normals_match_scalar_paired_transform():
    u = [(int(r) >> 11) * 2.0 ** -53
         for r in np.random.Philox(key=123).random_raw(4)]
    expect = []
    for i in range(0, 4, 2):
        r = np.sqrt(-2.0 * np.log1p(-u[i]))
        expect.append(r * np.cos(TWO_PI * u[i + 1]))
        expect.append(r * np.sin(TWO_PI * u[i + 1]))
    got = paired_normals(uniforms(123, 0, normal_uniforms(4)))
    np.testing.assert_array_equal(got, np.array(expect))
    np.testing.assert_array_equal(got, np.array(SEED123_NORMALS))


def test_odd_normal_count_consumes_full_pair():
    # the draw after k normals starts at normal_uniforms(k)
    assert [normal_uniforms(k) for k in range(6)] == [0, 2, 2, 4, 4, 6]


@pytest.mark.parametrize("position", [0, 1, 2, 3, 4, 5, 7, 8, 13, 100])
def test_replay_from_any_position(position):
    full = uniforms(99, 0, position + 16)
    np.testing.assert_array_equal(uniforms(99, position, 16), full[position:])


def test_phases_are_scaled_uniforms_in_range():
    got = TWO_PI * uniforms(42, 0, 1000)
    assert np.all(got >= 0.0) and np.all(got < TWO_PI)


def test_same_seed_same_stream_different_seed_differs():
    a = uniforms(5, 0, 32)
    b = uniforms(5, 0, 32)
    c = uniforms(6, 0, 32)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_max_seed_accepted():
    assert check_seed(MAX_SEED) == MAX_SEED
    assert uniforms(MAX_SEED, 0, 4).shape == (4,)


@pytest.mark.parametrize("seed", [-1, MAX_SEED + 1])
def test_out_of_range_seed_rejected(seed):
    with pytest.raises(ValueError):
        check_seed(seed)


@pytest.mark.parametrize("seed", [2.9, 2.0, True, False, "7", None,
                                  np.float64(3.0), np.bool_(True)])
def test_non_integer_seed_rejected_by_name(seed):
    with pytest.raises(ValueError) as exc:
        check_seed(seed, "split_seed")
    assert str(exc.value) == f"split_seed must be an integer, got {seed!r}"


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(MAX_SEED),
                                  np.int8(3)])
def test_numpy_integer_seed_is_returned_as_int(seed):
    checked = check_seed(seed)
    assert type(checked) is int and checked == seed


def test_negative_position_and_counts_rejected():
    with pytest.raises(ValueError) as exc:
        uniforms(0, -1, 4)
    assert str(exc.value) == "stream position must be non-negative"
    with pytest.raises(ValueError) as exc:
        uniforms(0, 0, -1)
    assert str(exc.value) == "count must be non-negative"


@pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, 2.0, True])
def test_uniforms_check_the_seed(seed):
    with pytest.raises(ValueError, match="seed must be"):
        uniforms(seed, 0, 4)
